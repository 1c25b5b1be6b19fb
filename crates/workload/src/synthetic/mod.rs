//! Synthetic workload generation.
//!
//! [`SyntheticSpec`] composes the component models (arrivals, sizes,
//! runtimes, walltime requests, memory, intensity, user population) and
//! generates a reproducible [`Workload`]: every component draws from its own
//! forked PCG64 stream, so changing one model never perturbs the samples of
//! another, and a `(spec, seed)` pair is a complete experiment description.
//!
//! [`SystemPreset`] packages three calibrations used throughout the
//! reproduction. Synthetic workloads stand in for production traces
//! because no archive trace ships in-tree (`ROADMAP.md`, *Parked*).

mod arrivals;
mod memory;
mod runtime;
mod sizes;

pub use arrivals::ArrivalModel;
pub use memory::{IntensityModel, MemoryModel};
pub use runtime::{round_up_to_bucket, RuntimeModel, WalltimeModel, WALLTIME_BUCKETS};
pub use sizes::SizeModel;

use crate::error::WorkloadError;
use crate::job::{Job, JobId};
use crate::slo::SloModel;
use crate::workload_set::Workload;
use dmhpc_des::rng::dist::Zipf;
use dmhpc_des::rng::Pcg64;
use dmhpc_des::time::SimTime;

/// A complete synthetic-workload description.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Number of jobs to generate.
    pub n_jobs: usize,
    /// Size of the user population.
    pub users: usize,
    /// Zipf exponent of user submission popularity (0 = uniform).
    pub user_zipf_s: f64,
    /// Arrival process.
    pub arrivals: ArrivalModel,
    /// Node-count model.
    pub sizes: SizeModel,
    /// Base-runtime model.
    pub runtime: RuntimeModel,
    /// Walltime-request model.
    pub walltime: WalltimeModel,
    /// Per-node memory model.
    pub memory: MemoryModel,
    /// Memory-intensity model.
    pub intensity: IntensityModel,
    /// Optional SLO stamping model. `None` (the presets' default) leaves
    /// jobs unconstrained and keeps generation bit-identical to pre-SLO
    /// output; `Some` stamps every job from its own forked stream.
    pub slo: Option<SloModel>,
}

impl SyntheticSpec {
    /// Validate every component model. Failures are typed
    /// ([`WorkloadError`]) and name the component that rejected its
    /// parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.n_jobs == 0 {
            return Err(WorkloadError::new("spec", "n_jobs must be positive"));
        }
        if self.users == 0 {
            return Err(WorkloadError::new("spec", "users must be positive"));
        }
        self.arrivals.validate()?;
        self.sizes.validate()?;
        self.runtime.validate()?;
        self.walltime.validate()?;
        self.memory.validate()?;
        self.intensity.validate()?;
        if let Some(slo) = &self.slo {
            slo.validate()?;
        }
        Ok(())
    }

    /// Generate the workload for `seed`. Deterministic: the same
    /// `(spec, seed)` always yields the identical job list.
    pub fn generate(&self, seed: u64) -> Workload {
        // lint: allow(panic) — documented panicking contract; validate() is the fallible check
        self.validate().expect("invalid SyntheticSpec");
        let root = Pcg64::new(seed);
        // Stream label 1 is the arrival process; the sampler forks 2–8.
        let arrivals = self.arrivals.generate(&mut root.fork(1), self.n_jobs);
        let mut sampler = JobSampler::new(self, &root);
        let mut jobs = Vec::with_capacity(self.n_jobs);
        for (i, &arrival) in arrivals.iter().enumerate() {
            jobs.push(sampler.sample(self, JobId(i as u64), arrival));
        }
        Workload::from_jobs(jobs)
    }
}

/// The per-job draw shared by [`SyntheticSpec::generate`] and the
/// streaming source: one forked PCG64 stream per component plus the
/// user-popularity Zipf. Forks do not depend on the parent's draw count,
/// so with equal arrivals job *i* of a stream equals job *i* of the batch.
#[derive(Debug, Clone)]
pub(crate) struct JobSampler {
    r_size: Pcg64,
    r_runtime: Pcg64,
    r_walltime: Pcg64,
    r_memory: Pcg64,
    r_intensity: Pcg64,
    r_user: Pcg64,
    r_slo: Pcg64,
    user_dist: Zipf,
}

impl JobSampler {
    /// Fork the component streams off `root`. Stream labels are stable
    /// ABI: 2–8 here, 1 for the caller's arrival process.
    pub(crate) fn new(spec: &SyntheticSpec, root: &Pcg64) -> Self {
        JobSampler {
            r_size: root.fork(2),
            r_runtime: root.fork(3),
            r_walltime: root.fork(4),
            r_memory: root.fork(5),
            r_intensity: root.fork(6),
            r_user: root.fork(7),
            r_slo: root.fork(8),
            user_dist: Zipf::new(spec.users, spec.user_zipf_s),
        }
    }

    /// Draw job `id` of `spec` arriving at `arrival`. The SLO stream
    /// advances only when the spec stamps, so unstamped workloads stay
    /// bit-identical to pre-SLO output.
    pub(crate) fn sample(&mut self, spec: &SyntheticSpec, id: JobId, arrival: SimTime) -> Job {
        let nodes = spec.sizes.sample(&mut self.r_size);
        let runtime = spec.runtime.sample(&mut self.r_runtime);
        let walltime = spec.walltime.sample(&mut self.r_walltime, runtime);
        let mem_per_node = spec.memory.sample(&mut self.r_memory);
        let mem_frac = mem_per_node as f64 / spec.memory.node_mem_mib as f64;
        let intensity = spec.intensity.sample(&mut self.r_intensity, mem_frac);
        let user = self.user_dist.sample_index(&mut self.r_user) as u32;
        let slo = spec.slo.as_ref().map(|m| m.sample(&mut self.r_slo));
        Job {
            id,
            user,
            arrival,
            nodes,
            walltime,
            runtime,
            mem_per_node,
            intensity,
            slo,
        }
    }
}

/// Pre-calibrated system models used by the reproduction experiments.
///
/// Each preset pairs a machine shape (consumed by `dmhpc-platform` builders
/// in the `sim` crate) with a workload calibration whose memory model is
/// expressed relative to that machine's node DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemPreset {
    /// Mid-size capacity system: 256 nodes × 64 cores × 256 GiB. The
    /// reproduction's base configuration.
    MidCluster,
    /// Capability system: 1024 nodes × 128 cores × 512 GiB, larger jobs,
    /// lighter relative memory pressure.
    Capability,
    /// Throughput system: 128 nodes × 32 cores × 192 GiB, small short jobs,
    /// heavier data-intensive memory tail.
    HighThroughput,
}

impl SystemPreset {
    /// All presets, for sweep harnesses.
    pub const ALL: [SystemPreset; 3] = [
        SystemPreset::MidCluster,
        SystemPreset::Capability,
        SystemPreset::HighThroughput,
    ];

    /// Stable name used in reports and CSV output.
    pub fn name(&self) -> &'static str {
        match self {
            SystemPreset::MidCluster => "mid-256",
            SystemPreset::Capability => "cap-1024",
            SystemPreset::HighThroughput => "htc-128",
        }
    }

    /// Machine shape: `(racks, nodes_per_rack, cores, node_mem_mib)`.
    pub fn machine(&self) -> (u32, u32, u32, u64) {
        match self {
            SystemPreset::MidCluster => (8, 32, 64, 256 * 1024),
            SystemPreset::Capability => (16, 64, 128, 512 * 1024),
            SystemPreset::HighThroughput => (4, 32, 32, 192 * 1024),
        }
    }

    /// Workload calibration producing `n_jobs` jobs. Arrival rates are set
    /// so the offered load is roughly 0.8–0.9 on the preset's machine;
    /// experiments that sweep load rescale from there
    /// (`transform::rescale_load`).
    pub fn synthetic_spec(&self, n_jobs: usize) -> SyntheticSpec {
        let (racks, npr, _, node_mem) = self.machine();
        let total_nodes = (racks * npr) as f64;
        match self {
            SystemPreset::MidCluster => SyntheticSpec {
                n_jobs,
                users: 200,
                user_zipf_s: 1.1,
                arrivals: ArrivalModel::daily(
                    // mean job ≈ 14.4 nodes × ~4200 s ⇒ interarrival for ~0.85 load
                    14.4 * 4200.0 / (total_nodes * 0.85),
                    3.0,
                ),
                sizes: SizeModel {
                    max_nodes: 64,
                    serial_fraction: 0.25,
                    power_of_two_bias: 0.75,
                    log_mean: 2.2,
                    log_std: 1.2,
                },
                runtime: RuntimeModel {
                    p_short: 0.65,
                    short: (2.0, 800.0),
                    long: (2.0, 6000.0),
                    min_secs: 60.0,
                    max_secs: 172_800.0,
                },
                walltime: WalltimeModel {
                    overestimate_mean_excess: 1.2,
                    round_to_buckets: true,
                    underestimate_fraction: 0.0,
                    max_secs: 172_800,
                },
                memory: MemoryModel {
                    node_mem_mib: node_mem,
                    light_median_frac: 0.15,
                    light_sigma: 0.8,
                    heavy_fraction: 0.12,
                    heavy_median_frac: 1.3,
                    heavy_sigma: 0.5,
                    cap_frac: 4.0,
                    min_mib: 256,
                },
                intensity: IntensityModel {
                    base: 0.25,
                    mem_coupling: 0.55,
                    noise: 0.1,
                },
                slo: None,
            },
            SystemPreset::Capability => SyntheticSpec {
                n_jobs,
                users: 400,
                user_zipf_s: 1.2,
                arrivals: ArrivalModel::daily(58.0 * 7000.0 / (total_nodes * 0.85), 3.0),
                sizes: SizeModel {
                    max_nodes: 512,
                    serial_fraction: 0.08,
                    power_of_two_bias: 0.85,
                    log_mean: 3.6,
                    log_std: 1.4,
                },
                runtime: RuntimeModel {
                    p_short: 0.5,
                    short: (2.0, 1500.0),
                    long: (2.5, 8000.0),
                    min_secs: 120.0,
                    max_secs: 172_800.0,
                },
                walltime: WalltimeModel {
                    overestimate_mean_excess: 1.0,
                    round_to_buckets: true,
                    underestimate_fraction: 0.0,
                    max_secs: 172_800,
                },
                memory: MemoryModel {
                    node_mem_mib: node_mem,
                    light_median_frac: 0.12,
                    light_sigma: 0.7,
                    heavy_fraction: 0.08,
                    heavy_median_frac: 1.15,
                    heavy_sigma: 0.45,
                    cap_frac: 3.0,
                    min_mib: 512,
                },
                intensity: IntensityModel {
                    base: 0.2,
                    mem_coupling: 0.5,
                    noise: 0.1,
                },
                slo: None,
            },
            SystemPreset::HighThroughput => SyntheticSpec {
                n_jobs,
                users: 120,
                user_zipf_s: 1.0,
                arrivals: ArrivalModel::daily(3.2 * 2500.0 / (total_nodes * 0.85), 2.5),
                sizes: SizeModel {
                    max_nodes: 16,
                    serial_fraction: 0.55,
                    power_of_two_bias: 0.6,
                    log_mean: 1.0,
                    log_std: 0.9,
                },
                runtime: RuntimeModel {
                    p_short: 0.8,
                    short: (1.5, 900.0),
                    long: (2.0, 4000.0),
                    min_secs: 30.0,
                    max_secs: 86_400.0,
                },
                walltime: WalltimeModel {
                    overestimate_mean_excess: 1.6,
                    round_to_buckets: true,
                    underestimate_fraction: 0.0,
                    max_secs: 86_400,
                },
                memory: MemoryModel {
                    node_mem_mib: node_mem,
                    light_median_frac: 0.2,
                    light_sigma: 0.9,
                    heavy_fraction: 0.2,
                    heavy_median_frac: 1.5,
                    heavy_sigma: 0.6,
                    cap_frac: 6.0,
                    min_mib: 128,
                },
                intensity: IntensityModel {
                    base: 0.3,
                    mem_coupling: 0.6,
                    noise: 0.12,
                },
                slo: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = SystemPreset::MidCluster.synthetic_spec(500);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a, b);
        let c = spec.generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn generates_requested_count_with_valid_jobs() {
        for preset in SystemPreset::ALL {
            let spec = preset.synthetic_spec(1000);
            let w = spec.generate(1);
            assert_eq!(w.len(), 1000, "{}", preset.name());
            for j in w.iter() {
                j.validate().unwrap();
                assert!(j.nodes <= spec.sizes.max_nodes);
                assert!(j.walltime >= j.runtime, "no underestimates configured");
            }
        }
    }

    #[test]
    fn offered_load_in_target_band() {
        let preset = SystemPreset::MidCluster;
        let spec = preset.synthetic_spec(4000);
        let w = spec.generate(3);
        let (racks, npr, _, _) = preset.machine();
        let load = w.offered_load(racks * npr);
        // Calibration is approximate; experiments rescale. Just require the
        // right order of magnitude.
        assert!(
            load > 0.4 && load < 1.6,
            "offered load {load} wildly off calibration"
        );
    }

    #[test]
    fn heavy_memory_class_present() {
        let spec = SystemPreset::MidCluster.synthetic_spec(5000);
        let w = spec.generate(11);
        let node_mem = spec.memory.node_mem_mib;
        let over = w.iter().filter(|j| j.mem_per_node > node_mem).count();
        let frac = over as f64 / w.len() as f64;
        assert!(frac > 0.04 && frac < 0.15, "over-node fraction {frac}");
    }

    #[test]
    fn changing_one_model_keeps_other_streams() {
        // Stream independence: a different memory model must not change
        // arrival times or node counts.
        let spec_a = SystemPreset::MidCluster.synthetic_spec(200);
        let mut spec_b = spec_a.clone();
        spec_b.memory.heavy_fraction = 0.5;
        let wa = spec_a.generate(9);
        let wb = spec_b.generate(9);
        for (a, b) in wa.iter().zip(wb.iter()) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.runtime, b.runtime);
        }
    }

    #[test]
    fn slo_stamping_is_seeded_and_stream_independent() {
        let spec_a = SystemPreset::MidCluster.synthetic_spec(300);
        let mut spec_b = spec_a.clone();
        spec_b.slo = Some(SloModel {
            factor_min: 0.5,
            factor_max: 2.0,
        });
        let wa = spec_a.generate(9);
        let wb = spec_b.generate(9);
        for (a, b) in wa.iter().zip(wb.iter()) {
            assert_eq!(a.slo, None);
            b.slo.expect("stamped").validate().unwrap();
            // The stamp draws from its own stream: all other fields match
            // the unstamped generation bit-for-bit.
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.mem_per_node, b.mem_per_node);
            assert_eq!(a.user, b.user);
        }
        assert_eq!(spec_b.generate(9), wb, "stamping is deterministic");
    }

    #[test]
    fn slo_model_is_validated() {
        let mut spec = SystemPreset::MidCluster.synthetic_spec(10);
        spec.slo = Some(SloModel {
            factor_min: -1.0,
            factor_max: 2.0,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn user_popularity_is_skewed() {
        let spec = SystemPreset::MidCluster.synthetic_spec(5000);
        let w = spec.generate(13);
        let mut counts = vec![0u32; spec.users];
        for j in w.iter() {
            counts[j.user as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = counts.iter().take(10).sum();
        assert!(
            top10 as f64 / 5000.0 > 0.2,
            "top-10 users should dominate submissions"
        );
    }

    #[test]
    fn preset_names_and_machines() {
        assert_eq!(SystemPreset::MidCluster.name(), "mid-256");
        let (racks, npr, cores, mem) = SystemPreset::MidCluster.machine();
        assert_eq!(racks * npr, 256);
        assert_eq!(cores, 64);
        assert_eq!(mem, 256 * 1024);
    }
}
