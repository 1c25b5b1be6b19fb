//! Lazy, seeded streaming job sources for open-system runs.
//!
//! A closed batch experiment materializes its whole [`crate::Workload`] up
//! front; an open *service* run instead pulls jobs on demand from a
//! [`JobSource`] until a [`Horizon`] is reached, so memory stays O(1) in the
//! number of jobs. [`StreamingSynthetic`] is the reference source: it drives
//! the existing [`SyntheticSpec`] component models (sizes, runtimes,
//! walltimes, memory, intensity, users) from the same forked PCG64 streams
//! the batch generator uses — stream forks are independent of parent draw
//! count, so job *i* of the stream is bit-identical to job *i* of
//! [`SyntheticSpec::generate`] when the arrival parameters agree — while the
//! arrival process itself is chosen per run:
//!
//! * [`ArrivalProcess::Poisson`] — memoryless arrivals at the target rate;
//! * [`ArrivalProcess::Daily`] — the daily-cycle nonhomogeneous Poisson of
//!   [`ArrivalModel`], thinned exactly;
//! * [`ArrivalProcess::Mmpp`] — a two-state Markov-modulated Poisson process
//!   for bursty traffic: phases alternate between a burst rate and a quiet
//!   rate with exponential dwell times, balanced so the long-run mean rate
//!   is preserved exactly while adding burst-scale correlation (see the
//!   variant docs for the phase-rate derivation).
//!
//! Load is controlled either by a fixed mean inter-arrival time
//! ([`LoadControl::Rate`]) or by a target machine utilization
//! ([`LoadControl::Utilization`]): the latter derives the rate from the job
//! size/runtime models via a deterministic pilot sample, so "run this
//! machine at 85%" is a one-parameter experiment axis. Everything is a pure
//! function of `(spec, process, load, horizon, seed)` — two sources built
//! with the same inputs emit identical job streams regardless of thread
//! count or interleaving, which is what makes open-system grid cells
//! replayable and cacheable.

use crate::error::WorkloadError;
use crate::job::{Job, JobId};
use crate::slo::Slo;
use crate::synthetic::{ArrivalModel, SyntheticSpec};
use dmhpc_des::rng::dist::Zipf;
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::{SimDuration, SimTime};

/// A lazy stream of jobs in non-decreasing arrival order.
///
/// Implementations must be deterministic: construction parameters fully
/// determine the emitted sequence.
pub trait JobSource: Send {
    /// The next job, or `None` once the source's horizon is reached. Jobs
    /// arrive in non-decreasing arrival order with distinct, increasing ids.
    fn next_job(&mut self) -> Option<Job>;

    /// Remaining jobs when the horizon is a job count; `None` for
    /// duration-bounded (open-ended count) sources.
    fn size_hint(&self) -> Option<u64>;
}

/// When an open-system stream stops emitting arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// Stop after exactly this many jobs.
    Jobs(u64),
    /// Stop at the first arrival past this instant (measured from t = 0).
    Duration(SimDuration),
}

impl Horizon {
    /// Validate: both variants must be non-empty — an open-system run with
    /// no horizon would never terminate.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            Horizon::Jobs(0) => Err(WorkloadError::new("horizon", "job-count horizon is zero")),
            Horizon::Duration(d) if d.is_zero() => {
                Err(WorkloadError::new("horizon", "duration horizon is zero"))
            }
            _ => Ok(()),
        }
    }
}

/// The inter-arrival process of a streaming source. The mean rate comes
/// from [`LoadControl`]; this chooses the shape around that mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals.
    Poisson,
    /// Daily-cycle nonhomogeneous Poisson with the given peak-to-trough
    /// rate ratio (≥ 1), exactly as [`ArrivalModel::daily`].
    Daily {
        /// Ratio of peak rate to trough rate (≥ 1).
        peak_to_trough: f64,
    },
    /// Two-state Markov-modulated Poisson process. The burst phase runs at
    /// `burst_ratio ×` the mean rate `r`; the quiet phase and the dwell
    /// balance are derived so the long-run mean rate is exactly `r`:
    ///
    /// * `burst_ratio ∈ [1, 2)` — quiet rate `(2 − burst_ratio) × r` with
    ///   equal mean dwell times in both phases (the historical derivation,
    ///   kept bit-exact);
    /// * `burst_ratio ≥ 2` — an interrupted Poisson process: the quiet
    ///   phase is silent (rate 0) and its mean dwell is stretched to
    ///   `(burst_ratio − 1) ×` the burst dwell, so the burst phase holds
    ///   `1 / burst_ratio` of the time and `burst_ratio × r / burst_ratio
    ///   = r` on average. The two branches agree in the limit at 2.
    Mmpp {
        /// Burst-phase rate as a multiple of the mean rate (≥ 1).
        burst_ratio: f64,
        /// Mean dwell time in the burst phase, seconds. For
        /// `burst_ratio < 2` the quiet phase dwells equally long on
        /// average; above, its dwell scales up to keep the mean rate.
        mean_dwell_secs: f64,
    },
}

impl ArrivalProcess {
    /// Validate process-shape parameters (typed, per the workload
    /// validation convention).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            ArrivalProcess::Poisson => Ok(()),
            ArrivalProcess::Daily { peak_to_trough } => {
                if !(peak_to_trough >= 1.0 && peak_to_trough.is_finite()) {
                    return Err(WorkloadError::new(
                        "arrivals",
                        format!("peak_to_trough must be >= 1 and finite, got {peak_to_trough}"),
                    ));
                }
                Ok(())
            }
            ArrivalProcess::Mmpp {
                burst_ratio,
                mean_dwell_secs,
            } => {
                if !(burst_ratio >= 1.0 && burst_ratio.is_finite()) {
                    return Err(WorkloadError::new(
                        "arrivals",
                        format!("MMPP burst_ratio must be >= 1 and finite, got {burst_ratio}"),
                    ));
                }
                if !(mean_dwell_secs > 0.0 && mean_dwell_secs.is_finite()) {
                    return Err(WorkloadError::new(
                        "arrivals",
                        format!(
                            "MMPP mean_dwell_secs must be positive and finite, \
                             got {mean_dwell_secs}"
                        ),
                    ));
                }
                Ok(())
            }
        }
    }

    /// Stable short name for labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Daily { .. } => "daily",
            ArrivalProcess::Mmpp { .. } => "mmpp",
        }
    }
}

/// How the mean arrival rate of an open stream is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadControl {
    /// Fixed mean inter-arrival time, seconds.
    Rate {
        /// Mean seconds between submissions.
        mean_interarrival_secs: f64,
    },
    /// Target utilization of a machine with `total_nodes` nodes. The mean
    /// inter-arrival is derived as
    /// `E[nodes × runtime] / (total_nodes × target)` where the expectation
    /// is estimated from a deterministic pilot sample of the size/runtime
    /// models (see [`StreamingSynthetic::new`]).
    Utilization {
        /// Target long-run node utilization (offered load), in `(0, 2]`.
        target: f64,
        /// Node count of the machine being loaded.
        total_nodes: u32,
    },
}

impl LoadControl {
    /// Validate load-control parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            LoadControl::Rate {
                mean_interarrival_secs,
            } => {
                if !(mean_interarrival_secs > 0.0 && mean_interarrival_secs.is_finite()) {
                    return Err(WorkloadError::new(
                        "load",
                        format!(
                            "mean inter-arrival must be positive and finite, \
                             got {mean_interarrival_secs}"
                        ),
                    ));
                }
                Ok(())
            }
            LoadControl::Utilization {
                target,
                total_nodes,
            } => {
                if !(target > 0.0 && target <= 2.0 && target.is_finite()) {
                    return Err(WorkloadError::new(
                        "load",
                        format!("utilization target must be in (0, 2], got {target}"),
                    ));
                }
                if total_nodes == 0 {
                    return Err(WorkloadError::new(
                        "load",
                        "utilization target needs a machine with at least one node",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Number of pilot draws used to estimate `E[nodes × runtime]` for
/// [`LoadControl::Utilization`]. Drawn from dedicated streams, so the pilot
/// never perturbs the job streams themselves.
const PILOT_JOBS: usize = 512;

/// Fork labels for the pilot streams — far outside the stable 1–7 labels of
/// the per-component generation streams.
const PILOT_SIZE_STREAM: u64 = 0x9101;
const PILOT_RUNTIME_STREAM: u64 = 0x9102;

/// State of the two-phase MMPP modulator.
#[derive(Debug, Clone, Copy)]
struct MmppState {
    rate_high: f64,
    rate_low: f64,
    /// Mean dwell in the burst phase, seconds.
    dwell_high_secs: f64,
    /// Mean dwell in the quiet phase, seconds (equal to the burst dwell for
    /// `burst_ratio < 2`, stretched above — see [`ArrivalProcess::Mmpp`]).
    dwell_low_secs: f64,
    /// Currently in the burst phase?
    high: bool,
    /// Absolute time (seconds) of the next phase switch.
    switch_at: f64,
}

impl MmppState {
    /// The next arrival strictly after `t`. Uses memorylessness: an
    /// exponential candidate drawn at the current phase rate is valid while
    /// it lands before the phase switch; past the switch, time advances to
    /// the switch, the phase toggles with a fresh dwell, and the residual
    /// is redrawn at the new rate.
    fn next_after(&mut self, rng: &mut Pcg64, mut t: f64) -> f64 {
        loop {
            let rate = if self.high {
                self.rate_high
            } else {
                self.rate_low
            };
            // A silent quiet phase (interrupted Poisson, burst_ratio ≥ 2)
            // yields dt = +inf here, which correctly falls through to the
            // phase switch while consuming one draw — the same draw count
            // per loop iteration as an audible phase.
            let dt = -rng.next_f64_open().ln() / rate;
            if t + dt <= self.switch_at {
                return t + dt;
            }
            t = self.switch_at;
            self.high = !self.high;
            let mean_dwell = if self.high {
                self.dwell_high_secs
            } else {
                self.dwell_low_secs
            };
            let dwell = -rng.next_f64_open().ln() * mean_dwell;
            self.switch_at = t + dwell;
        }
    }
}

/// A [`JobSource`] streaming jobs from the synthetic component models.
///
/// Construction is fallible and fully validates every parameter; streaming
/// never fails after that. See the module docs for determinism and
/// batch-replay guarantees.
#[derive(Debug, Clone)]
pub struct StreamingSynthetic {
    spec: SyntheticSpec,
    arrivals: ArrivalModel,
    mmpp: Option<MmppState>,
    horizon: Horizon,
    r_arrival: Pcg64,
    r_size: Pcg64,
    r_runtime: Pcg64,
    r_walltime: Pcg64,
    r_memory: Pcg64,
    r_intensity: Pcg64,
    r_user: Pcg64,
    r_slo: Pcg64,
    /// Fixed objective stamped on every job when the spec carries no
    /// [`crate::SloModel`] of its own (the service layer's default stamp).
    default_slo: Option<Slo>,
    user_dist: Zipf,
    t_secs: f64,
    emitted: u64,
    done: bool,
}

impl StreamingSynthetic {
    /// Build a stream over `spec`'s component models (its `n_jobs` and
    /// `arrivals` fields are ignored — the horizon and the
    /// `(process, load)` pair replace them).
    ///
    /// For [`LoadControl::Utilization`], `E[nodes × runtime]` is estimated
    /// here from a fixed-size pilot sample (`PILOT_JOBS` draws) on
    /// dedicated RNG streams, making the rate a deterministic function of
    /// `(spec, seed, target)`.
    pub fn new(
        spec: SyntheticSpec,
        process: ArrivalProcess,
        load: LoadControl,
        horizon: Horizon,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        spec.validate()?;
        process.validate()?;
        load.validate()?;
        horizon.validate()?;

        let root = Pcg64::new(seed);
        let mean_interarrival_secs = match load {
            LoadControl::Rate {
                mean_interarrival_secs,
            } => mean_interarrival_secs,
            LoadControl::Utilization {
                target,
                total_nodes,
            } => {
                let mut r_size = root.fork(PILOT_SIZE_STREAM);
                let mut r_runtime = root.fork(PILOT_RUNTIME_STREAM);
                let mut total_node_secs = 0.0;
                for _ in 0..PILOT_JOBS {
                    let nodes = spec.sizes.sample(&mut r_size) as f64;
                    let runtime = spec.runtime.sample(&mut r_runtime);
                    total_node_secs += nodes * runtime.as_secs_f64();
                }
                let mean_job_node_secs = total_node_secs / PILOT_JOBS as f64;
                mean_job_node_secs / (total_nodes as f64 * target)
            }
        };

        let arrivals = match process {
            ArrivalProcess::Daily { peak_to_trough } => {
                ArrivalModel::daily(mean_interarrival_secs, peak_to_trough)
            }
            _ => ArrivalModel::poisson(mean_interarrival_secs),
        };
        arrivals.validate()?;

        // Same stream labels as `SyntheticSpec::generate` (stable ABI), so
        // job i of this stream replays job i of the batch generator.
        let mut r_arrival = root.fork(1);
        let mmpp = match process {
            ArrivalProcess::Mmpp {
                burst_ratio,
                mean_dwell_secs,
            } => {
                let rate = 1.0 / mean_interarrival_secs;
                // Phase-rate balance: below 2 the quiet phase absorbs the
                // burst surplus at equal dwell; from 2 up the quiet phase
                // goes silent and its dwell stretches instead. Both keep
                // the long-run mean at `rate` exactly.
                let (rate_low, dwell_low_secs) = if burst_ratio < 2.0 {
                    (rate * (2.0 - burst_ratio), mean_dwell_secs)
                } else {
                    (0.0, (burst_ratio - 1.0) * mean_dwell_secs)
                };
                let dwell = -r_arrival.next_f64_open().ln() * mean_dwell_secs;
                Some(MmppState {
                    rate_high: rate * burst_ratio,
                    rate_low,
                    dwell_high_secs: mean_dwell_secs,
                    dwell_low_secs,
                    high: true,
                    switch_at: dwell,
                })
            }
            _ => None,
        };

        Ok(StreamingSynthetic {
            user_dist: Zipf::new(spec.users, spec.user_zipf_s),
            r_arrival,
            r_size: root.fork(2),
            r_runtime: root.fork(3),
            r_walltime: root.fork(4),
            r_memory: root.fork(5),
            r_intensity: root.fork(6),
            r_user: root.fork(7),
            r_slo: root.fork(8),
            default_slo: None,
            spec,
            arrivals,
            mmpp,
            horizon,
            t_secs: 0.0,
            emitted: 0,
            done: false,
        })
    }

    /// Stamp every emitted job with a fixed objective. The spec's own
    /// [`crate::SloModel`], when present, takes precedence (it draws a
    /// per-job budget factor); this fixed stamp consumes no randomness.
    pub fn with_default_slo(mut self, slo: Slo) -> Result<Self, WorkloadError> {
        slo.validate()?;
        self.default_slo = Some(slo);
        Ok(self)
    }

    /// The resolved mean inter-arrival time, seconds (after any
    /// utilization-target derivation).
    pub fn mean_interarrival_secs(&self) -> f64 {
        self.arrivals.mean_interarrival_secs
    }

    /// Jobs emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl JobSource for StreamingSynthetic {
    fn next_job(&mut self) -> Option<Job> {
        if self.done {
            return None;
        }
        if let Horizon::Jobs(n) = self.horizon {
            if self.emitted >= n {
                self.done = true;
                return None;
            }
        }
        let t = match self.mmpp.as_mut() {
            Some(m) => m.next_after(&mut self.r_arrival, self.t_secs),
            None => self.arrivals.next_after(&mut self.r_arrival, self.t_secs),
        };
        if let Horizon::Duration(d) = self.horizon {
            if t > d.as_secs_f64() {
                self.done = true;
                return None;
            }
        }
        self.t_secs = t;

        // Per-job draw order matches the batch generator exactly.
        let nodes = self.spec.sizes.sample(&mut self.r_size);
        let runtime = self.spec.runtime.sample(&mut self.r_runtime);
        let walltime = self.spec.walltime.sample(&mut self.r_walltime, runtime);
        let mem_per_node = self.spec.memory.sample(&mut self.r_memory);
        let mem_frac = mem_per_node as f64 / self.spec.memory.node_mem_mib as f64;
        let intensity = self.spec.intensity.sample(&mut self.r_intensity, mem_frac);
        let user = self.user_dist.sample_index(&mut self.r_user) as u32;
        // Matches the batch generator: the SLO stream advances only when
        // the spec stamps, so unstamped streams replay bit-identically.
        let slo = match &self.spec.slo {
            Some(m) => Some(m.sample(&mut self.r_slo)),
            None => self.default_slo,
        };
        let id = JobId(self.emitted);
        self.emitted += 1;
        Some(Job {
            id,
            user,
            arrival: SimTime::from_secs_f64(t),
            nodes,
            walltime,
            runtime,
            mem_per_node,
            intensity,
            slo,
        })
    }

    fn size_hint(&self) -> Option<u64> {
        match self.horizon {
            Horizon::Jobs(n) => Some(n - self.emitted.min(n)),
            Horizon::Duration(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SystemPreset;

    fn spec() -> SyntheticSpec {
        SystemPreset::HighThroughput.synthetic_spec(300)
    }

    #[test]
    fn stream_replays_batch_generation_bit_exactly() {
        // Same seed, same arrival parameters as the preset's own daily
        // model: the first n streamed jobs must equal the batch workload.
        let spec = spec();
        let batch = spec.generate(9);
        let mut src = StreamingSynthetic::new(
            spec.clone(),
            ArrivalProcess::Daily {
                peak_to_trough: spec.arrivals.peak_to_trough,
            },
            LoadControl::Rate {
                mean_interarrival_secs: spec.arrivals.mean_interarrival_secs,
            },
            Horizon::Jobs(300),
            9,
        )
        .unwrap();
        assert_eq!(src.size_hint(), Some(300));
        for expect in batch.iter() {
            assert_eq!(&src.next_job().unwrap(), expect);
        }
        assert!(src.next_job().is_none());
        assert!(src.next_job().is_none(), "stays exhausted");
        assert_eq!(src.size_hint(), Some(0));
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        let mk = |seed| {
            StreamingSynthetic::new(
                spec(),
                ArrivalProcess::Mmpp {
                    burst_ratio: 1.6,
                    mean_dwell_secs: 1800.0,
                },
                LoadControl::Utilization {
                    target: 0.8,
                    total_nodes: 128,
                },
                Horizon::Jobs(500),
                seed,
            )
            .unwrap()
        };
        let (mut a, mut b, mut c) = (mk(5), mk(5), mk(6));
        let ja: Vec<Job> = std::iter::from_fn(|| a.next_job()).collect();
        let jb: Vec<Job> = std::iter::from_fn(|| b.next_job()).collect();
        let jc: Vec<Job> = std::iter::from_fn(|| c.next_job()).collect();
        assert_eq!(ja, jb, "same seed, same stream");
        assert_ne!(ja, jc, "different seed, different stream");
        assert_eq!(ja.len(), 500);
    }

    #[test]
    fn utilization_target_hits_offered_load() {
        // Stream enough jobs and check the realized offered load against
        // the target on the nominated machine.
        let mut src = StreamingSynthetic::new(
            spec(),
            ArrivalProcess::Poisson,
            LoadControl::Utilization {
                target: 0.85,
                total_nodes: 128,
            },
            Horizon::Jobs(20_000),
            3,
        )
        .unwrap();
        let jobs: Vec<Job> = std::iter::from_fn(|| src.next_job()).collect();
        let w = crate::Workload::from_jobs(jobs);
        let load = w.offered_load(128);
        assert!(
            (load - 0.85).abs() < 0.12,
            "offered load {load} should be near the 0.85 target"
        );
    }

    #[test]
    fn mmpp_preserves_mean_rate_and_bursts() {
        let mean = 50.0;
        let mut src = StreamingSynthetic::new(
            spec(),
            ArrivalProcess::Mmpp {
                burst_ratio: 1.8,
                mean_dwell_secs: 3600.0,
            },
            LoadControl::Rate {
                mean_interarrival_secs: mean,
            },
            Horizon::Jobs(40_000),
            11,
        )
        .unwrap();
        let mut last = 0.0;
        let mut gaps = Vec::new();
        while let Some(j) = src.next_job() {
            let t = j.arrival.as_secs_f64();
            gaps.push(t - last);
            last = t;
        }
        let realized_mean = last / gaps.len() as f64;
        assert!(
            (realized_mean - mean).abs() / mean < 0.05,
            "MMPP long-run mean {realized_mean} should stay near {mean}"
        );
        // Burstiness: the squared coefficient of variation of inter-arrival
        // gaps exceeds 1 (= Poisson) when phases modulate the rate.
        let m: f64 = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var: f64 = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        let scv = var / (m * m);
        assert!(scv > 1.1, "MMPP gaps should be over-dispersed, scv {scv}");
    }

    #[test]
    fn mmpp_high_burst_ratio_preserves_mean_rate() {
        // Interrupted-Poisson regime: at burst_ratio 4 the quiet phase is
        // silent and three times as long as the burst on average; the
        // long-run mean must still hold, and the gaps must be burstier
        // than at ratio 1.8.
        let mean = 50.0;
        for ratio in [2.0, 4.0] {
            // Short dwells give the estimator plenty of phase cycles; the
            // long-run mean concentrates as cycles accumulate.
            let mut src = StreamingSynthetic::new(
                spec(),
                ArrivalProcess::Mmpp {
                    burst_ratio: ratio,
                    mean_dwell_secs: 600.0,
                },
                LoadControl::Rate {
                    mean_interarrival_secs: mean,
                },
                Horizon::Jobs(40_000),
                11,
            )
            .unwrap();
            let mut last = 0.0;
            let mut n = 0u64;
            while let Some(j) = src.next_job() {
                last = j.arrival.as_secs_f64();
                n += 1;
            }
            let realized_mean = last / n as f64;
            assert!(
                (realized_mean - mean).abs() / mean < 0.08,
                "ratio {ratio}: long-run mean {realized_mean} should stay near {mean}"
            );
        }
    }

    #[test]
    fn duration_horizon_stops_at_cutoff() {
        let mut src = StreamingSynthetic::new(
            spec(),
            ArrivalProcess::Poisson,
            LoadControl::Rate {
                mean_interarrival_secs: 60.0,
            },
            Horizon::Duration(SimDuration::from_hours(24)),
            1,
        )
        .unwrap();
        assert_eq!(src.size_hint(), None);
        let jobs: Vec<Job> = std::iter::from_fn(|| src.next_job()).collect();
        assert!(!jobs.is_empty());
        let cutoff = SimTime::from_secs(86_400);
        assert!(jobs.iter().all(|j| j.arrival <= cutoff));
        // ~1440 arrivals expected in a day at 1/min.
        assert!(jobs.len() > 1000 && jobs.len() < 2000, "{}", jobs.len());
    }

    #[test]
    fn construction_rejects_bad_parameters_with_typed_errors() {
        let ok = |p: ArrivalProcess, l: LoadControl, h: Horizon| {
            StreamingSynthetic::new(spec(), p, l, h, 1)
        };
        let rate = LoadControl::Rate {
            mean_interarrival_secs: 60.0,
        };
        let horizon = Horizon::Jobs(10);

        let err = ok(
            ArrivalProcess::Poisson,
            LoadControl::Rate {
                mean_interarrival_secs: -5.0,
            },
            horizon,
        )
        .unwrap_err();
        assert_eq!(err.model, "load");

        let err = ok(
            ArrivalProcess::Mmpp {
                burst_ratio: 0.5,
                mean_dwell_secs: 100.0,
            },
            rate,
            horizon,
        )
        .unwrap_err();
        assert_eq!(err.model, "arrivals");
        assert!(err.reason.contains("burst_ratio"), "{err}");
        let err = ok(
            ArrivalProcess::Mmpp {
                burst_ratio: f64::INFINITY,
                mean_dwell_secs: 100.0,
            },
            rate,
            horizon,
        )
        .unwrap_err();
        assert!(err.reason.contains("burst_ratio"), "{err}");
        // The old [1, 2) upper bound is lifted: ratios at and above 2 are
        // valid (interrupted-Poisson regime).
        ok(
            ArrivalProcess::Mmpp {
                burst_ratio: 2.0,
                mean_dwell_secs: 100.0,
            },
            rate,
            horizon,
        )
        .unwrap();
        ok(
            ArrivalProcess::Mmpp {
                burst_ratio: 6.0,
                mean_dwell_secs: 100.0,
            },
            rate,
            horizon,
        )
        .unwrap();

        let err = ok(
            ArrivalProcess::Mmpp {
                burst_ratio: 1.5,
                mean_dwell_secs: 0.0,
            },
            rate,
            horizon,
        )
        .unwrap_err();
        assert!(err.reason.contains("mean_dwell_secs"), "{err}");

        let err = ok(
            ArrivalProcess::Daily {
                peak_to_trough: 0.2,
            },
            rate,
            horizon,
        )
        .unwrap_err();
        assert!(err.reason.contains("peak_to_trough"), "{err}");

        let err = ok(ArrivalProcess::Poisson, rate, Horizon::Jobs(0)).unwrap_err();
        assert_eq!(err.model, "horizon");
        let err = ok(
            ArrivalProcess::Poisson,
            rate,
            Horizon::Duration(SimDuration::ZERO),
        )
        .unwrap_err();
        assert_eq!(err.model, "horizon");

        let err = ok(
            ArrivalProcess::Poisson,
            LoadControl::Utilization {
                target: 0.0,
                total_nodes: 128,
            },
            horizon,
        )
        .unwrap_err();
        assert!(err.reason.contains("target"), "{err}");
        let err = ok(
            ArrivalProcess::Poisson,
            LoadControl::Utilization {
                target: 0.8,
                total_nodes: 0,
            },
            horizon,
        )
        .unwrap_err();
        assert!(err.reason.contains("node"), "{err}");
    }

    #[test]
    fn slo_stamping_replays_batch_and_defaults_apply() {
        use crate::slo::SloModel;
        // Spec-model stamping: the stream must replay the batch generator
        // bit-exactly, stamped budgets included.
        let mut spec_m = spec();
        spec_m.slo = Some(SloModel {
            factor_min: 0.5,
            factor_max: 3.0,
        });
        let batch = spec_m.generate(9);
        let mut src = StreamingSynthetic::new(
            spec_m.clone(),
            ArrivalProcess::Daily {
                peak_to_trough: spec_m.arrivals.peak_to_trough,
            },
            LoadControl::Rate {
                mean_interarrival_secs: spec_m.arrivals.mean_interarrival_secs,
            },
            Horizon::Jobs(300),
            9,
        )
        .unwrap();
        for expect in batch.iter() {
            assert_eq!(&src.next_job().unwrap(), expect);
        }

        // Default stamp: fixed objective on every job, no randomness
        // consumed, and the spec model (when present) wins.
        let fixed = Slo::Deadline { deadline_s: 900.0 };
        let mut plain = StreamingSynthetic::new(
            spec(),
            ArrivalProcess::Poisson,
            LoadControl::Rate {
                mean_interarrival_secs: 60.0,
            },
            Horizon::Jobs(20),
            3,
        )
        .unwrap();
        let mut stamped = plain.clone().with_default_slo(fixed).unwrap();
        while let (Some(a), Some(b)) = (plain.next_job(), stamped.next_job()) {
            assert_eq!(a.slo, None);
            assert_eq!(b.slo, Some(fixed));
            assert_eq!(a.arrival, b.arrival, "stamp consumes no randomness");
            assert_eq!(a.runtime, b.runtime);
        }
        assert!(StreamingSynthetic::new(
            spec(),
            ArrivalProcess::Poisson,
            LoadControl::Rate {
                mean_interarrival_secs: 60.0,
            },
            Horizon::Jobs(20),
            3,
        )
        .unwrap()
        .with_default_slo(Slo::Deadline { deadline_s: -1.0 })
        .is_err());
    }

    #[test]
    fn pilot_streams_do_not_perturb_job_streams() {
        // Rate-controlled and utilization-controlled sources with the same
        // realized rate draw identical job fields (arrival times differ
        // only through the rate).
        let spec = spec();
        let mut util = StreamingSynthetic::new(
            spec.clone(),
            ArrivalProcess::Poisson,
            LoadControl::Utilization {
                target: 0.85,
                total_nodes: 128,
            },
            Horizon::Jobs(50),
            7,
        )
        .unwrap();
        let mut rate = StreamingSynthetic::new(
            spec,
            ArrivalProcess::Poisson,
            LoadControl::Rate {
                mean_interarrival_secs: util.mean_interarrival_secs(),
            },
            Horizon::Jobs(50),
            7,
        )
        .unwrap();
        while let (Some(a), Some(b)) = (util.next_job(), rate.next_job()) {
            assert_eq!(a, b);
        }
    }
}
