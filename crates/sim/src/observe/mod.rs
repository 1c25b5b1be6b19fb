//! The streaming observation API: a typed event stream with pluggable
//! consumers.
//!
//! Every run the engine executes is *observed* through one mechanism: it
//! emits a [`SimEvent`] at each state change (job submitted / started /
//! interrupted / finished / failed / rejected, allocation grab / release,
//! fault applied / cleared, scheduling pass ran), and a set of
//! [`Observer`]s consume the stream. All of the simulator's own metrics
//! are built-in observers —
//!
//! * [`SeriesObserver`] — the time-weighted system series
//!   ([`crate::SeriesBundle`]: busy nodes, pool/DRAM occupancy, queue
//!   depth);
//! * [`JobStatsObserver`] — the per-job outcome records;
//! * [`SketchStatsObserver`] — the O(1)-memory alternative for
//!   open-system service runs: streaming quantile sketches and online
//!   moments over a post-warmup measurement window, in place of the
//!   per-job record list;
//! * [`FaultObserver`] — interruption/rework counters and the
//!   availability integral ([`dmhpc_metrics::FaultSummary`]);
//!
//! — and [`crate::SimOutput`] is assembled from their final state, so the
//! default observer set reproduces the pre-redesign output bit for bit
//! (golden-hash tested). On top of that ride the optional consumers:
//!
//! * [`TraceSink`] — a streaming JSONL trace writer with a fixed-size
//!   buffer: memory stays O(buffer) no matter how many events a run
//!   produces, which is what makes million-job traces exportable;
//! * [`SampledSeriesProbe`] — system state sampled at a configurable
//!   cadence (bounded output regardless of event count);
//! * [`EventCounter`] — per-kind event counts (tests, quick looks).
//!
//! **Hash-neutrality rule:** observers *consume* the stream, they never
//! feed back into it. Attaching any observer changes neither the trace
//! hash nor any metric, and observer configuration is excluded from
//! experiment cell hashes (like `event_queue`) — so result caches built
//! before this API replay untouched.
//!
//! Attach points, innermost to outermost: per run, everything goes
//! through one [`crate::ObserverSet`] passed to
//! [`crate::Simulation::run_with`], which borrows caller-owned
//! observers; per-cell factories on a whole grid via
//! `ExperimentRunner::observe` /
//! `ExperimentRunner::trace_dir`; and `repro … --trace-out DIR` from the
//! command line.

mod builtin;
mod probe;
mod sketch;
mod trace;

pub use builtin::{FaultObserver, JobStatsObserver, SeriesObserver};
pub use probe::{EventCounter, SampleRow, SampledSeriesProbe};
pub use sketch::SketchStatsObserver;
pub use trace::{parse_trace_line, TraceDir, TraceSink};

use crate::error::SimError;
use crate::faults::FaultAction;
use dmhpc_des::time::SimTime;
use dmhpc_metrics::JobRecord;
use dmhpc_platform::ClusterSpec;
use dmhpc_workload::{Job, JobId};

/// One observation from a run, emitted by the engine at the instant the
/// corresponding state change happens. Events carry everything a consumer
/// needs — observers never reach back into the engine.
#[derive(Debug, Clone)]
pub enum SimEvent {
    /// A job entered the wait queue: a workload arrival, or a
    /// fault-interrupted job resubmitted (`resubmit`, possibly with
    /// checkpoint-adjusted remaining runtime).
    JobSubmitted {
        /// Event time.
        at: SimTime,
        /// The submitted job.
        job: Job,
        /// True for fault-policy resubmissions, false for arrivals.
        resubmit: bool,
    },
    /// A scheduling pass started a queued job.
    JobStarted {
        /// Event time.
        at: SimTime,
        /// The started job.
        job: JobId,
        /// Nodes allocated (≥ requested when memory-inflated).
        nodes: u32,
        /// Dilation the scheduler planned at start.
        dilation: f64,
    },
    /// Capacity was allocated to a starting job.
    AllocationGrabbed {
        /// Event time.
        at: SimTime,
        /// The holding job.
        job: JobId,
        /// Node count of the allocation.
        nodes: u32,
        /// Node-local DRAM pinned, MiB (all nodes).
        local_mib: u64,
        /// Pool memory borrowed, MiB (all nodes).
        remote_mib: u64,
    },
    /// A job's capacity was released (finish, kill, or interruption).
    AllocationReleased {
        /// Event time.
        at: SimTime,
        /// The releasing job.
        job: JobId,
        /// Node count of the allocation.
        nodes: u32,
        /// Node-local DRAM released, MiB (all nodes).
        local_mib: u64,
        /// Pool memory released, MiB (all nodes).
        remote_mib: u64,
    },
    /// A running job reached its end (completed, or killed at walltime —
    /// see `record.outcome`).
    JobFinished {
        /// Event time.
        at: SimTime,
        /// The job's final record.
        record: JobRecord,
    },
    /// A fault displaced a running job (its allocation was already
    /// released in the preceding [`SimEvent::AllocationReleased`]).
    JobInterrupted {
        /// Event time.
        at: SimTime,
        /// The interrupted job.
        job: JobId,
        /// Work seconds charged to rework by this interruption.
        rework_s: f64,
        /// Whether the job re-enters the queue (false: it fails terminally
        /// in the [`SimEvent::JobFailed`] that follows).
        resubmitted: bool,
    },
    /// A job terminally failed under a fault scenario: resubmission budget
    /// exhausted (`record.start` is set), or unservable after permanent
    /// capacity loss (`record.start` is `None` — it was still queued).
    JobFailed {
        /// Event time.
        at: SimTime,
        /// The job's final record.
        record: JobRecord,
    },
    /// A scheduling pass rejected a queued job as unrunnable.
    JobRejected {
        /// Event time.
        at: SimTime,
        /// The job's final record.
        record: JobRecord,
    },
    /// A machine perturbation took hold (node failure, drain start, pool
    /// degradation). Emitted before the interruptions it causes.
    FaultApplied {
        /// Event time.
        at: SimTime,
        /// The perturbation.
        action: FaultAction,
        /// In-service (`Up`) node count after the transition.
        nodes_in_service: usize,
    },
    /// A machine perturbation ended (repair, drain end, pool repair).
    FaultCleared {
        /// Event time.
        at: SimTime,
        /// The clearing action.
        action: FaultAction,
        /// In-service (`Up`) node count after the transition.
        nodes_in_service: usize,
    },
    /// Admission control deferred a queued job: no up-capacity placement
    /// meets its deadline right now, but one could once running jobs
    /// release. Emitted once per job, at its first deferral.
    JobDeferred {
        /// Event time.
        at: SimTime,
        /// The deferred job.
        job: JobId,
        /// When admission will re-examine the job.
        recheck_at: SimTime,
    },
    /// The preemption policy checkpointed a running job to make room for a
    /// deadline-critical queued job (its allocation was already released
    /// in the preceding [`SimEvent::AllocationReleased`]; the
    /// [`SimEvent::JobSubmitted`] resubmission follows).
    JobPreempted {
        /// Event time.
        at: SimTime,
        /// The preempted (checkpointed) job.
        job: JobId,
        /// The queued job the capacity was freed for.
        for_job: JobId,
    },
    /// A scheduling pass ran to completion.
    PassCompleted {
        /// Event time.
        at: SimTime,
        /// Jobs started by the pass.
        started: usize,
        /// Jobs rejected by the pass.
        rejected: usize,
        /// Queue depth after the pass.
        queued: usize,
    },
}

impl SimEvent {
    /// The simulated instant of the event.
    pub fn at(&self) -> SimTime {
        match *self {
            SimEvent::JobSubmitted { at, .. }
            | SimEvent::JobStarted { at, .. }
            | SimEvent::AllocationGrabbed { at, .. }
            | SimEvent::AllocationReleased { at, .. }
            | SimEvent::JobFinished { at, .. }
            | SimEvent::JobInterrupted { at, .. }
            | SimEvent::JobFailed { at, .. }
            | SimEvent::JobRejected { at, .. }
            | SimEvent::FaultApplied { at, .. }
            | SimEvent::FaultCleared { at, .. }
            | SimEvent::JobDeferred { at, .. }
            | SimEvent::JobPreempted { at, .. }
            | SimEvent::PassCompleted { at, .. } => at,
        }
    }

    /// Stable kind tag (trace lines, counters).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::JobSubmitted { .. } => "submit",
            SimEvent::JobStarted { .. } => "start",
            SimEvent::AllocationGrabbed { .. } => "grab",
            SimEvent::AllocationReleased { .. } => "release",
            SimEvent::JobFinished { .. } => "finish",
            SimEvent::JobInterrupted { .. } => "interrupt",
            SimEvent::JobFailed { .. } => "fail",
            SimEvent::JobRejected { .. } => "reject",
            SimEvent::FaultApplied { .. } => "fault",
            SimEvent::FaultCleared { .. } => "fault_clear",
            SimEvent::JobDeferred { .. } => "defer",
            SimEvent::JobPreempted { .. } => "preempt",
            SimEvent::PassCompleted { .. } => "pass",
        }
    }
}

/// What an observer learns when a run begins.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Time origin of the run (first arrival, or the first fault if it
    /// precedes every arrival).
    pub start: SimTime,
    /// The machine being simulated.
    pub cluster: ClusterSpec,
    /// Jobs in the workload.
    pub jobs: usize,
    /// In-service (`Up`) nodes at the origin.
    pub in_service_nodes: usize,
    /// Run label (scheduler policy triple).
    pub label: String,
}

/// What an observer learns when a run ends.
#[derive(Debug, Clone, Copy)]
pub struct RunEnd {
    /// Time of the last processed engine event.
    pub at: SimTime,
    /// End of the metrics window (clamped to the last job-affecting event
    /// on fault runs; equals `at` otherwise).
    pub end: SimTime,
    /// Engine events processed (arrivals + live finishes + faults).
    pub events_processed: u64,
    /// Scheduling passes executed.
    pub passes: u64,
    /// The run's deterministic trace hash.
    pub trace_hash: u64,
}

/// A consumer of the event stream. All methods default to no-ops, so an
/// observer implements only what it cares about.
///
/// Observers are strictly read-only with respect to the simulation:
/// nothing they do can change the run (the engine hands out data, never
/// control), which is what makes them hash-neutral by construction.
/// Implementations must be deterministic if their output is compared
/// across runs (the built-ins and `TraceSink` are).
pub trait Observer: Send {
    /// The run is about to execute.
    fn on_run_start(&mut self, _ctx: &RunContext) {}
    /// One state change happened.
    fn on_event(&mut self, _ev: &SimEvent) {}
    /// The run finished; flush/summarize here.
    fn on_run_end(&mut self, _end: &RunEnd) {}
    /// A deferred failure (e.g. a sink's I/O error), surfaced by callers
    /// that can propagate errors (the experiment runner checks this after
    /// every cell).
    fn failure(&self) -> Option<SimError> {
        None
    }
}

/// Identity of one run, handed to [`ObserverFactory`] so per-run sinks
/// can name their outputs.
#[derive(Debug, Clone)]
pub struct RunLabel {
    /// Human-readable label (cell label in grids, policy triple for
    /// stand-alone runs).
    pub label: String,
    /// Filesystem-safe unique stem derived from the label.
    pub file_stem: String,
}

impl RunLabel {
    /// A label with a sanitized file stem (every character outside
    /// `[A-Za-z0-9._+-]` becomes `-`).
    pub fn new(label: impl Into<String>) -> Self {
        let label = label.into();
        let file_stem: String = label
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '+' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect();
        RunLabel { label, file_stem }
    }
}

/// Builds one fresh observer per run. Grids execute many runs (cells)
/// concurrently, and stateful observers cannot be shared between them —
/// so `ExperimentRunner::observe`, which outlives a single run, takes
/// factories; the runner makes each cell's observers and lends them to
/// [`crate::Simulation::run_with`].
pub trait ObserverFactory: Send + Sync {
    /// Create the observer for one run. Fallible so file-backed sinks can
    /// surface creation errors before the run starts.
    fn make(&self, run: &RunLabel) -> Result<Box<dyn Observer>, SimError>;
}

/// Closures work as factories: `runner.observe(Arc::new(|run: &RunLabel| …))`.
impl<F> ObserverFactory for F
where
    F: Fn(&RunLabel) -> Result<Box<dyn Observer>, SimError> + Send + Sync,
{
    fn make(&self, run: &RunLabel) -> Result<Box<dyn Observer>, SimError> {
        self(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_label_sanitizes() {
        let l = RunLabel::new("htc|load0.80|seed1|fcfs+easy/local only");
        assert_eq!(l.file_stem, "htc-load0.80-seed1-fcfs+easy-local-only");
        assert_eq!(l.label, "htc|load0.80|seed1|fcfs+easy/local only");
    }

    #[test]
    fn event_kind_and_time_accessors() {
        let ev = SimEvent::PassCompleted {
            at: SimTime::from_secs(5),
            started: 1,
            rejected: 0,
            queued: 2,
        };
        assert_eq!(ev.kind(), "pass");
        assert_eq!(ev.at(), SimTime::from_secs(5));
    }
}
