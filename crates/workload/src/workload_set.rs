//! An ordered collection of jobs.

use crate::job::{Job, JobId};
use crate::source::JobSource;
use dmhpc_des::time::{SimDuration, SimTime};

/// A workload: jobs sorted by `(arrival, id)`. The simulator consumes jobs
/// in this order; keeping the invariant here (rather than re-sorting in the
/// engine) makes trace transforms cheap to compose.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    jobs: Vec<Job>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from arbitrary-order jobs; sorts and validates.
    ///
    /// # Panics
    /// Panics if any job fails [`Job::validate`] or an id repeats —
    /// workloads come from generators/parsers that must not emit garbage.
    pub fn from_jobs(mut jobs: Vec<Job>) -> Self {
        for j in &jobs {
            // lint: allow(panic) — documented panicking constructor; generators and parsers must not emit garbage
            j.validate().expect("invalid job in workload");
        }
        jobs.sort_by_key(|j| (j.arrival, j.id));
        for w in jobs.windows(2) {
            assert!(w[0].id != w[1].id, "duplicate job id {}", w[0].id);
        }
        Workload { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs in arrival order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Iterate in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Job> {
        self.jobs.iter()
    }

    /// Replay the jobs as a lazy [`JobSource`], in arrival order. Each
    /// pull clones one job; nothing is copied up front.
    pub fn source(&self) -> impl JobSource + '_ {
        Replay(self.jobs.iter())
    }

    /// Job by id (linear scan — fine for setup-time lookups).
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// First arrival; `None` when empty.
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.jobs.first().map(|j| j.arrival)
    }

    /// Last arrival; `None` when empty.
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.jobs.last().map(|j| j.arrival)
    }

    /// Arrival span (last − first); zero when fewer than 2 jobs.
    pub fn arrival_span(&self) -> SimDuration {
        match (self.first_arrival(), self.last_arrival()) {
            (Some(a), Some(b)) => b - a,
            _ => SimDuration::ZERO,
        }
    }

    /// Total base node-seconds across jobs.
    pub fn total_node_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.node_seconds()).sum()
    }

    /// Largest node request.
    pub fn max_nodes(&self) -> u32 {
        self.jobs.iter().map(|j| j.nodes).max().unwrap_or(0)
    }

    /// Offered load against a machine of `total_nodes`: base node-seconds
    /// divided by available node-seconds over the arrival span. >1 means
    /// the machine cannot keep up.
    pub fn offered_load(&self, total_nodes: u32) -> f64 {
        let span = self.arrival_span().as_secs_f64();
        if span == 0.0 || total_nodes == 0 {
            return 0.0;
        }
        self.total_node_seconds() / (total_nodes as f64 * span)
    }
}

impl IntoIterator for Workload {
    type Item = Job;
    type IntoIter = std::vec::IntoIter<Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.into_iter()
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

/// The stream [`Workload::source`] returns.
struct Replay<'a>(std::slice::Iter<'a, Job>);

impl JobSource for Replay<'_> {
    fn next_job(&mut self) -> Option<Job> {
        self.0.next().cloned()
    }

    fn size_hint(&self) -> Option<u64> {
        Some(self.0.len() as u64)
    }
}

/// Incremental workload construction with automatic id assignment.
#[derive(Debug, Default)]
pub struct WorkloadBuilder {
    jobs: Vec<Job>,
    next_id: u64,
}

impl WorkloadBuilder {
    /// An empty builder starting ids at 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next id the builder will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Add a fully-specified job (id must be fresh).
    pub fn push(&mut self, job: Job) -> &mut Self {
        self.next_id = self.next_id.max(job.id.0 + 1);
        self.jobs.push(job);
        self
    }

    /// Add a job built from a closure over a [`crate::JobBuilder`] seeded
    /// with the next fresh id.
    pub fn add<F>(&mut self, f: F) -> JobId
    where
        F: FnOnce(crate::JobBuilder) -> crate::JobBuilder,
    {
        let id = self.next_id;
        self.next_id += 1;
        let job = f(crate::JobBuilder::new(id)).build();
        let jid = job.id;
        self.jobs.push(job);
        jid
    }

    /// Finish into a sorted, validated workload.
    pub fn build(self) -> Workload {
        Workload::from_jobs(self.jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobBuilder;

    #[test]
    fn sorts_by_arrival_then_id() {
        let w = Workload::from_jobs(vec![
            JobBuilder::new(3).arrival_secs(50).build(),
            JobBuilder::new(1).arrival_secs(100).build(),
            JobBuilder::new(2).arrival_secs(50).build(),
        ]);
        let ids: Vec<u64> = w.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![2, 3, 1]);
        assert_eq!(w.first_arrival(), Some(SimTime::from_secs(50)));
        assert_eq!(w.last_arrival(), Some(SimTime::from_secs(100)));
        assert_eq!(w.arrival_span(), SimDuration::from_secs(50));
    }

    #[test]
    #[should_panic(expected = "duplicate job id")]
    fn rejects_duplicate_ids() {
        Workload::from_jobs(vec![JobBuilder::new(1).build(), JobBuilder::new(1).build()]);
    }

    #[test]
    fn offered_load_math() {
        // Two jobs: 10 nodes × 100 s each = 2000 node-s over a 100 s span
        // on a 100-node machine = 0.2 load.
        let w = Workload::from_jobs(vec![
            JobBuilder::new(1)
                .arrival_secs(0)
                .nodes(10)
                .runtime_secs(100, 200)
                .build(),
            JobBuilder::new(2)
                .arrival_secs(100)
                .nodes(10)
                .runtime_secs(100, 200)
                .build(),
        ]);
        assert!((w.offered_load(100) - 0.2).abs() < 1e-12);
        assert_eq!(w.max_nodes(), 10);
        assert!((w.total_node_seconds() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_workload() {
        let w = Workload::new();
        assert!(w.is_empty());
        assert_eq!(w.first_arrival(), None);
        assert_eq!(w.offered_load(100), 0.0);
        assert_eq!(w.arrival_span(), SimDuration::ZERO);
    }

    #[test]
    fn builder_assigns_ids() {
        let mut b = WorkloadBuilder::new();
        let a = b.add(|j| j.arrival_secs(10));
        let c = b.add(|j| j.arrival_secs(5));
        assert_eq!(a, JobId(0));
        assert_eq!(c, JobId(1));
        let w = b.build();
        assert_eq!(w.len(), 2);
        assert_eq!(w.jobs()[0].id, JobId(1), "earlier arrival first");
    }

    #[test]
    fn builder_push_respects_existing_ids() {
        let mut b = WorkloadBuilder::new();
        b.push(JobBuilder::new(10).build());
        let id = b.add(|j| j);
        assert_eq!(id, JobId(11));
    }

    #[test]
    fn source_replays_jobs_in_arrival_order() {
        let w = Workload::from_jobs(vec![
            JobBuilder::new(2).arrival_secs(20).build(),
            JobBuilder::new(1).arrival_secs(10).build(),
        ]);
        let mut src = w.source();
        assert_eq!(src.size_hint(), Some(2));
        assert_eq!(src.next_job().as_ref(), w.jobs().first());
        assert_eq!(src.size_hint(), Some(1));
        assert_eq!(src.next_job().as_ref(), w.jobs().get(1));
        assert_eq!(src.next_job(), None);
        assert_eq!(src.size_hint(), Some(0));
    }

    #[test]
    fn get_by_id() {
        let w = Workload::from_jobs(vec![JobBuilder::new(5).build()]);
        assert!(w.get(JobId(5)).is_some());
        assert!(w.get(JobId(6)).is_none());
    }
}
