//! The job model.

use crate::slo::Slo;
use dmhpc_des::time::{SimDuration, SimTime};
use std::fmt;

/// Unique job identifier. Also used as the platform lease id, so `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl JobId {
    /// The raw id, for use as a platform lease key.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// One batch job as submitted.
///
/// `nodes` and `mem_per_node` describe the job's *natural* shape: the node
/// count the user asked for and the peak per-node footprint at that count.
/// The total footprint `nodes × mem_per_node` is treated as invariant — if a
/// policy runs the job on more nodes (memory-driven inflation on a
/// conventional cluster), the per-node demand shrinks correspondingly via
/// [`mem_per_node_at`](Job::mem_per_node_at).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique id; also the platform lease id while running.
    pub id: JobId,
    /// Submitting user (dense index, not a uid).
    pub user: u32,
    /// Submission time.
    pub arrival: SimTime,
    /// Requested node count (≥ 1).
    pub nodes: u32,
    /// User-provided walltime limit: the scheduler plans with this and kills
    /// the job when it expires.
    pub walltime: SimDuration,
    /// Actual runtime on all-local memory ("base" runtime, undilated).
    pub runtime: SimDuration,
    /// Peak memory per node at the requested node count, MiB.
    pub mem_per_node: u64,
    /// Memory-access intensity in `[0, 1]`: how much of the far-memory
    /// penalty this job feels. 0 = compute-bound, 1 = fully memory-bound.
    pub intensity: f64,
    /// Optional service-level objective (a wait budget). `None` means the
    /// job is unconstrained; SLO-free workloads hash and serialize exactly
    /// as they did before the field existed.
    pub slo: Option<Slo>,
}

impl Job {
    /// Total memory footprint across all nodes, MiB.
    pub fn total_mem(&self) -> u64 {
        self.mem_per_node * self.nodes as u64
    }

    /// Per-node footprint if the job ran on `k` nodes (total preserved,
    /// rounded up). `k` must be ≥ 1.
    pub fn mem_per_node_at(&self, k: u32) -> u64 {
        assert!(k >= 1, "node count must be >= 1");
        self.total_mem().div_ceil(k as u64)
    }

    /// Node-seconds actually consumed at base runtime.
    pub fn node_seconds(&self) -> f64 {
        self.nodes as f64 * self.runtime.as_secs_f64()
    }

    /// User estimate accuracy: `runtime / walltime`, in `[0, ∞)`; values
    /// above 1 mean the job would be killed by its limit.
    pub fn estimate_accuracy(&self) -> f64 {
        self.runtime.ratio(self.walltime)
    }

    /// Validate internal consistency; the builder and parsers call this.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err(format!("{}: zero nodes", self.id));
        }
        if self.walltime.is_zero() {
            return Err(format!("{}: zero walltime", self.id));
        }
        if self.runtime.is_zero() {
            return Err(format!("{}: zero runtime", self.id));
        }
        if !(0.0..=1.0).contains(&self.intensity) {
            return Err(format!(
                "{}: intensity {} outside [0,1]",
                self.id, self.intensity
            ));
        }
        if self.mem_per_node == 0 {
            return Err(format!("{}: zero memory", self.id));
        }
        if let Some(slo) = &self.slo {
            slo.validate().map_err(|e| format!("{}: {e}", self.id))?;
        }
        Ok(())
    }
}

/// Fluent constructor for [`Job`], with sane defaults for the fields tests
/// rarely care about.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    /// Start building job `id`; defaults: user 0, arrival 0, 1 node, 1 h
    /// walltime, 30 min runtime, 1 GiB per node, intensity 0.5.
    pub fn new(id: u64) -> Self {
        JobBuilder {
            job: Job {
                id: JobId(id),
                user: 0,
                arrival: SimTime::ZERO,
                nodes: 1,
                walltime: SimDuration::from_hours(1),
                runtime: SimDuration::from_mins(30),
                mem_per_node: 1024,
                intensity: 0.5,
                slo: None,
            },
        }
    }

    /// Set the submitting user.
    pub fn user(mut self, user: u32) -> Self {
        self.job.user = user;
        self
    }

    /// Set the arrival time.
    pub fn arrival(mut self, at: SimTime) -> Self {
        self.job.arrival = at;
        self
    }

    /// Set the arrival time in seconds.
    pub fn arrival_secs(mut self, secs: u64) -> Self {
        self.job.arrival = SimTime::from_secs(secs);
        self
    }

    /// Set the requested node count.
    pub fn nodes(mut self, nodes: u32) -> Self {
        self.job.nodes = nodes;
        self
    }

    /// Set the walltime limit.
    pub fn walltime(mut self, walltime: SimDuration) -> Self {
        self.job.walltime = walltime;
        self
    }

    /// Set the actual base runtime.
    pub fn runtime(mut self, runtime: SimDuration) -> Self {
        self.job.runtime = runtime;
        self
    }

    /// Set both runtime and walltime in seconds (walltime ≥ runtime is the
    /// caller's choice, not enforced).
    pub fn runtime_secs(mut self, runtime: u64, walltime: u64) -> Self {
        self.job.runtime = SimDuration::from_secs(runtime);
        self.job.walltime = SimDuration::from_secs(walltime);
        self
    }

    /// Set the per-node memory footprint in MiB.
    pub fn mem_per_node(mut self, mib: u64) -> Self {
        self.job.mem_per_node = mib;
        self
    }

    /// Set the memory intensity.
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.job.intensity = intensity;
        self
    }

    /// Attach a service-level objective.
    pub fn slo(mut self, slo: Slo) -> Self {
        self.job.slo = Some(slo);
        self
    }

    /// Finish; panics if the job is inconsistent (construction-time bug).
    pub fn build(self) -> Job {
        self.job
            .validate()
            // lint: allow(panic) — documented panicking builder contract; invalid field combinations are caller bugs
            .expect("JobBuilder produced invalid job");
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_valid() {
        let j = JobBuilder::new(1).build();
        assert_eq!(j.id, JobId(1));
        assert_eq!(j.nodes, 1);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn total_and_inflated_memory() {
        let j = JobBuilder::new(2).nodes(4).mem_per_node(100).build();
        assert_eq!(j.total_mem(), 400);
        assert_eq!(j.mem_per_node_at(4), 100);
        assert_eq!(j.mem_per_node_at(8), 50);
        assert_eq!(j.mem_per_node_at(3), 134); // ceil(400/3)
        assert_eq!(j.mem_per_node_at(1), 400);
    }

    #[test]
    fn node_seconds() {
        let j = JobBuilder::new(3).nodes(10).runtime_secs(600, 3600).build();
        assert!((j.node_seconds() - 6000.0).abs() < 1e-9);
        assert!((j.estimate_accuracy() - 600.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut j = JobBuilder::new(4).build();
        j.nodes = 0;
        assert!(j.validate().is_err());
        let mut j = JobBuilder::new(5).build();
        j.intensity = 1.5;
        assert!(j.validate().is_err());
        let mut j = JobBuilder::new(6).build();
        j.mem_per_node = 0;
        assert!(j.validate().is_err());
        let mut j = JobBuilder::new(7).build();
        j.slo = Some(Slo::Deadline { deadline_s: -5.0 });
        assert!(j.validate().is_err());
    }

    #[test]
    fn slo_attaches_via_builder() {
        let j = JobBuilder::new(8)
            .slo(Slo::BudgetFactor { factor: 2.0 })
            .build();
        assert_eq!(j.slo, Some(Slo::BudgetFactor { factor: 2.0 }));
        assert_eq!(JobBuilder::new(9).build().slo, None);
    }

    #[test]
    #[should_panic(expected = "invalid job")]
    fn builder_panics_on_invalid() {
        JobBuilder::new(7).intensity(2.0).build();
    }

    #[test]
    fn display_id() {
        assert_eq!(JobId(42).to_string(), "j42");
        assert_eq!(JobId(42).as_u64(), 42);
    }
}
