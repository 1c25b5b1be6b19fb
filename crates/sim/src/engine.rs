//! The incremental scheduling kernel.
//!
//! Event loop over one **arrival feed** and a stable pending-event set
//! (binary heap by default, calendar queue opt-in via
//! [`crate::EventQueueKind`], chosen by value). Arrivals never enter the
//! event set: the feed is a head buffer refilled one job at a time from a
//! [`JobSource`] — a replay of the [`Workload`] on closed runs, the
//! scenario's seeded stream on open service runs — or, on a federated
//! site, pushed by the fleet's meta-scheduler. At every instant all
//! arrivals due are admitted before any queued event pops, so the three
//! kinds of run share one arrival order and one trace. The event set
//! holds the rest: job finishes, fault actions, and pass wake-ups. Work
//! done per event batch is proportional to **what changed**, not to
//! cluster size:
//!
//! ## How the kernel schedules
//!
//! * **Event-driven passes.** A scheduling pass runs only when it can
//!   matter: after a batch in which a job arrived or capacity was released
//!   *and* the wait queue is non-empty. A finish that drains into an empty
//!   queue settles re-dilation and moves on — no pass, no release-list
//!   work. `SimOutput::passes` therefore counts at most one pass per
//!   batch, strictly fewer than events under idle stretches.
//! * **Persistent release index.** The planned releases backfilling
//!   forecasts against live in a [`ReleaseIndex`] sorted by planned end,
//!   updated when a job starts or finishes (planned ends are walltime-based
//!   and fixed at start, so re-dilation never moves them). Each pass
//!   receives a read-only [`dmhpc_sched::ReleaseView`] instead of a list
//!   rebuilt from the running set — the pass's fixed cost no longer scales
//!   with how much is running.
//! * **Pool-scoped re-dilation.** Under the contention slowdown model the
//!   engine keeps a per-pool borrower index plus a dirty-pool set (marked
//!   when an allocation or release changes a pool's occupancy). Re-dilation
//!   visits only borrowers charged to pools whose pressure actually
//!   changed; everyone else's dilation inputs are unchanged by
//!   construction, so skipping them is trace-exact. Re-stamped finishes
//!   supersede the old event via a generation stamp.
//!
//! Determinism is unchanged: dirty-pool iteration and the borrower sets
//! are ordered (`BTreeSet`), so the kernel reproduces the pre-incremental
//! engine's trace hashes bit-for-bit on either queue backend (tested
//! against golden hashes in `tests/integration.rs`). Work accounting is
//! exact: a completed job's consumed work equals its base runtime by
//! construction.
//!
//! ## Observation
//!
//! The engine never touches metric state directly: every state change is
//! emitted as a typed [`SimEvent`] (see [`crate::observe`]) and consumed
//! by observers. The built-in metric observers (series, job records,
//! fault counters) are statically dispatched and always attached —
//! [`SimOutput`] is assembled from their final state, performing exactly
//! the operations the pre-observer engine performed, in the same order
//! (golden-hash pinned). User observers ride the same stream through
//! [`Simulation::run_with`] and an [`ObserverSet`]; they are
//! strictly read-only, so attaching any number of them is trace-exact.
//!
//! ## Fault events
//!
//! A run may carry a [`FaultSpec`]: node failures/repairs, maintenance
//! drain windows, and pool degradations arrive as a third event kind.
//! Displaced jobs are interrupted *within* the event that displaced them
//! (released, then resubmitted or checkpoint-restarted per
//! [`InterruptPolicy`], or terminally failed once their resubmission
//! budget is spent), so by every batch end no job occupies a non-`Up`
//! node and no pool is over its degraded capacity — both checked in
//! `check_invariants` mode. Restarted jobs resume at a generation above
//! every earlier attempt's, so stale finish events stay stale. With
//! [`FaultSpec::none`] (the default) no fault event exists and every
//! fault branch is dead: traces are bit-identical to the pre-fault
//! engine (golden-hash tested).

use crate::collector::SeriesBundle;
use crate::config::{EventQueueKind, SimConfig};
use crate::error::SimError;
use crate::faults::{FaultAction, FaultSpec, InterruptPolicy};
use crate::fnv::Fnv64;
use crate::observe::{
    FaultObserver, JobStatsObserver, Observer, RunContext, RunEnd, SeriesObserver, SimEvent,
    SketchStatsObserver,
};
use crate::service::ServiceSpec;
use dmhpc_des::queue::{BinaryHeapQueue, CalendarQueue, EventQueue};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_metrics::{
    ClassThresholds, FaultSummary, JobOutcome, JobRecord, RunData, ServiceSummary, SimReport,
};
use dmhpc_platform::{Cluster, DilationInputs, MemoryAssignment, NodeState};
use dmhpc_sched::{
    PreemptPolicy, ReleaseIndex, RunningRelease, SchedContext, Scheduler, SiteSnapshot, StartedJob,
    WaitQueue,
};
use dmhpc_workload::{Job, JobId, JobSource, Workload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// One simulation event. Arrivals are not events: they come from the
/// engine's arrival feed.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A running job reached its (possibly superseded) end time.
    Finish { job: JobId, generation: u32 },
    /// A machine perturbation from the run's [`FaultSpec`] (never
    /// scheduled on fault-free runs, which keep the exact pre-fault code
    /// path).
    Fault(FaultAction),
    /// Re-pass after a held batch's latency budget expires (scheduled only
    /// when an ordering returns [`dmhpc_sched::PassDirective::Hold`];
    /// never on runs without batch-forming policies). Hash-neutral: the
    /// wake itself writes nothing into the trace hash — only the starts it
    /// triggers do.
    Wake,
}

/// The pending-event set on the backend [`SimConfig::event_queue`] picks.
/// Chosen by value, so one engine type serves both backends; both are
/// stable queues and produce bit-identical traces.
enum EventSet {
    Heap(BinaryHeapQueue<Event>),
    Calendar(CalendarQueue<Event>),
}

impl EventSet {
    fn new(kind: EventQueueKind) -> Self {
        match kind {
            EventQueueKind::BinaryHeap => EventSet::Heap(BinaryHeapQueue::new()),
            EventQueueKind::Calendar => EventSet::Calendar(CalendarQueue::new()),
        }
    }
}

impl EventQueue<Event> for EventSet {
    fn schedule(&mut self, at: SimTime, payload: Event) {
        match self {
            EventSet::Heap(q) => q.schedule(at, payload),
            EventSet::Calendar(q) => q.schedule(at, payload),
        }
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        match self {
            EventSet::Heap(q) => q.pop(),
            EventSet::Calendar(q) => q.pop(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        match self {
            EventSet::Heap(q) => q.peek_time(),
            EventSet::Calendar(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            EventSet::Heap(q) => q.len(),
            EventSet::Calendar(q) => q.len(),
        }
    }
}

/// Per-job fault bookkeeping, kept only for jobs that were interrupted.
#[derive(Debug, Clone, Copy, Default)]
struct FaultMeta {
    /// Resubmissions consumed so far.
    resubmits: u32,
    /// Generation the job's *next* start begins at — strictly above every
    /// generation of earlier attempts, so stale finish events from an
    /// interrupted attempt can never match a later one.
    next_gen: u32,
}

/// Execution state of a running job.
#[derive(Debug, Clone)]
struct RunningJob {
    job: Job,
    start: SimTime,
    assignment: MemoryAssignment,
    kill_time: SimTime,
    dilation_planned: f64,
    /// Current dilation factor (changes only under the contention model).
    dilation: f64,
    /// Undilated work left, exact as of `last_update`.
    work_remaining: SimDuration,
    last_update: SimTime,
    /// Valid finish-event stamp; older events are stale.
    generation: u32,
    /// Whether the currently-scheduled finish is a walltime kill.
    ends_by_kill: bool,
}

impl RunningJob {
    /// The job's final record at `now`, having consumed `consumed` of its
    /// undilated work: the achieved dilation is residence over work (the
    /// current factor when no work was consumed).
    fn into_record(self, outcome: JobOutcome, now: SimTime, consumed: SimDuration) -> JobRecord {
        let dilation_actual = if consumed.is_zero() {
            self.dilation
        } else {
            (now - self.start).ratio(consumed)
        };
        JobRecord {
            nodes_allocated: self.assignment.node_count() as u32,
            remote_per_node: self.assignment.remote_per_node,
            job: self.job,
            outcome,
            start: Some(self.start),
            finish: Some(now),
            dilation_planned: self.dilation_planned,
            dilation_actual,
        }
    }
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Headline metrics (T2 row).
    pub report: SimReport,
    /// Per-job outcomes, in completion order (rejected jobs at rejection
    /// time).
    pub records: Vec<JobRecord>,
    /// System time series.
    pub series: SeriesBundle,
    /// Events processed (arrivals + non-stale finishes).
    pub events_processed: u64,
    /// Scheduling passes executed.
    pub passes: u64,
    /// FNV-1a hash of the event trace; equal hashes ⇒ identical runs.
    pub trace_hash: u64,
    /// Time of the last processed event.
    pub end_time: SimTime,
    /// Fault/availability counters (all-default for fault-free runs,
    /// where `faults.avail_util == report.node_util` exactly).
    pub faults: FaultSummary,
    /// Jobs checkpoint-preempted to make room for deadline-critical
    /// arrivals (always 0 unless a [`dmhpc_sched::PreemptPolicy`] is
    /// active).
    pub preemptions: u64,
    /// Open-system headline metrics; `None` for closed batch runs. On
    /// service runs `records` is empty and `series` is the empty origin
    /// bundle — per-job and per-event state is folded into O(1) sketches
    /// instead (see [`crate::observe::SketchStatsObserver`]).
    pub service: Option<ServiceSummary>,
}

/// Everything one run should watch, gathered into a single value for
/// [`Simulation::run_with`]: caller-owned observers, borrowed for the
/// run. Observation is always hash-neutral: attaching any combination
/// leaves the run's trace hash and output bit-identical.
///
/// ```
/// use dmhpc_sim::ObserverSet;
/// # use dmhpc_sim::observe::EventCounter;
/// let mut counter = EventCounter::new();
/// let set = ObserverSet::new().watch(&mut counter);
/// // sim.run_with(&workload, set); counter is inspectable afterwards.
/// ```
#[derive(Default)]
pub struct ObserverSet<'a> {
    /// Caller-owned observers: inspectable after the run; the caller is
    /// responsible for checking [`Observer::failure`].
    borrowed: Vec<&'a mut dyn Observer>,
}

impl<'a> ObserverSet<'a> {
    /// An empty set (the built-in metric observers always run).
    pub fn new() -> Self {
        ObserverSet::default()
    }

    /// Watch with a caller-owned observer. The caller keeps the borrow
    /// after the run, so sink state (samples, counters, trace buffers)
    /// stays inspectable — and failures are the caller's to check.
    pub fn watch(mut self, observer: &'a mut dyn Observer) -> Self {
        self.borrowed.push(observer);
        self
    }

    /// Watch with every observer in a caller-owned box slice (the
    /// experiment runner's calling convention).
    pub fn watch_boxed(mut self, observers: &'a mut [Box<dyn Observer>]) -> Self {
        for b in observers.iter_mut() {
            self.borrowed.push(&mut **b);
        }
        self
    }
}

impl std::fmt::Debug for ObserverSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverSet")
            .field("borrowed", &self.borrowed.len())
            .finish()
    }
}

/// A configured simulator. `run` is a pure function of the workload (and
/// the attached [`FaultSpec`], itself pure data) — attached observers
/// consume the run's event stream but can never change it.
pub struct Simulation {
    cfg: SimConfig,
    scheduler: Scheduler,
    faults: FaultSpec,
    service: ServiceSpec,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("cfg", &self.cfg)
            .field("scheduler", &self.scheduler)
            .field("faults", &self.faults)
            .field("service", &self.service)
            .finish()
    }
}

impl Simulation {
    /// Build a simulator from a configuration, using the built-in policy
    /// enums. Validates the cluster shape and the slowdown model; every
    /// problem surfaces here as a typed [`SimError`], so `run` itself
    /// cannot fail.
    pub fn new(cfg: SimConfig) -> Result<Self, SimError> {
        cfg.cluster.validate()?;
        let scheduler = Scheduler::new(cfg.scheduler)?;
        Ok(Simulation {
            cfg,
            scheduler,
            faults: FaultSpec::none(),
            service: ServiceSpec::none(),
        })
    }

    /// Build a simulator with custom [`dmhpc_sched::Ordering`] /
    /// [`dmhpc_sched::Placement`] implementations instead of the config's
    /// policy enums. Custom policies must be deterministic or runs stop
    /// being reproducible.
    pub fn with_policies(
        cfg: SimConfig,
        order: Box<dyn dmhpc_sched::Ordering>,
        placement: Box<dyn dmhpc_sched::Placement>,
    ) -> Result<Self, SimError> {
        cfg.cluster.validate()?;
        let scheduler = Scheduler::with_policies(cfg.scheduler, order, placement)?;
        Ok(Simulation {
            cfg,
            scheduler,
            faults: FaultSpec::none(),
            service: ServiceSpec::none(),
        })
    }

    /// Attach a fault/availability scenario, validating its parameters and
    /// that every fixed action targets a node/pool this machine has.
    /// [`FaultSpec::none`] (the default) reproduces fault-free behaviour
    /// bit-for-bit.
    pub fn with_fault_spec(mut self, faults: FaultSpec) -> Result<Self, SimError> {
        faults.validate_for(&self.cfg.cluster)?;
        if !faults.is_none() && !self.service.is_none() {
            return Err(SimError::spec(
                "fault scenarios do not combine with open-system service runs",
            ));
        }
        self.faults = faults;
        Ok(self)
    }

    /// Attach an open-system service scenario: the run streams arrivals
    /// from the scenario's [`JobSource`] instead of a pre-materialized
    /// workload (the workload argument of `run` is ignored and typically
    /// empty), and per-job metrics are folded into O(1) sketches.
    /// [`ServiceSpec::none`] (the default) reproduces closed-batch
    /// behaviour bit-for-bit.
    pub fn with_service_spec(mut self, service: ServiceSpec) -> Result<Self, SimError> {
        service.validate_for(&self.cfg.cluster)?;
        if !service.is_none() && !self.faults.is_none() {
            return Err(SimError::spec(
                "open-system service runs do not combine with fault scenarios",
            ));
        }
        // The run's wait objective becomes the fallback deadline policies
        // see through `SchedContext::slo_wait_s` (a no-op for orderings
        // that ignore deadlines).
        self.scheduler.set_slo_target(service.slo_wait_s);
        self.service = service;
        Ok(self)
    }

    /// This simulator's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The label reports carry: the active policy triple (reflects custom
    /// policies when present).
    pub fn label(&self) -> String {
        self.scheduler.label()
    }

    /// Simulate the workload to completion with the default observer set
    /// (the built-in metric observers that assemble [`SimOutput`]).
    pub fn run(&self, workload: &Workload) -> SimOutput {
        self.run_with(workload, ObserverSet::new())
    }

    /// Simulate the workload with everything in `observers` watching, on
    /// top of the built-in metric observers that assemble [`SimOutput`].
    ///
    /// This is the single observed-run entry point. Observation is
    /// hash-neutral: the output is bit-identical to an unobserved run.
    /// The run itself cannot fail: construction validated every input.
    /// Observers stay with the caller, who inspects them after the run
    /// and checks their deferred sink failures through
    /// [`Observer::failure`] (the experiment runner does this for the
    /// observers its factories make per cell).
    pub fn run_with(&self, workload: &Workload, observers: ObserverSet<'_>) -> SimOutput {
        let mut extras = observers.borrowed;
        // One arrival feed either way: a closed run replays the workload,
        // an open run streams its scenario's seeded jobs — opened fresh
        // per run, so repeated runs replay identically.
        let source: Box<dyn JobSource + '_> = if self.service.is_none() {
            Box::new(workload.source())
        } else {
            Box::new(
                self.service
                    .open_source(&self.cfg.cluster)
                    // lint: allow(panic) — with_service_spec opened this stream once to validate it
                    .expect("validated service stream opens"),
            )
        };
        Engine::new(
            &self.cfg,
            &self.scheduler,
            &self.faults,
            &self.service,
            Some(source),
            &mut extras,
            None,
        )
        .finish()
    }
}

/// The always-attached metric observers [`SimOutput`] is assembled from.
/// Statically dispatched: the fast path pays no virtual calls for its own
/// metrics, only user-attached extras go through `dyn Observer`.
///
/// Closed batch runs attach `series` + `stats` (exact, O(events) /
/// O(jobs)); open service runs attach `sketch` instead (O(1) in both) —
/// never both, so a run's memory profile matches its mode.
struct Builtins {
    series: Option<SeriesObserver>,
    stats: Option<JobStatsObserver>,
    sketch: Option<SketchStatsObserver>,
    faults: FaultObserver,
}

/// One run's kernel: a plain run drives it to completion with
/// [`Engine::finish`]; a federation coordinator also steps it epoch by
/// epoch ([`Engine::advance_until`]) and feeds it routed jobs
/// ([`Engine::inject`]).
pub(crate) struct Engine<'a, 'o> {
    cfg: &'a SimConfig,
    scheduler: &'a Scheduler,
    faults: &'a FaultSpec,
    /// Where the arrival feed refills from; `None` once exhausted, and on
    /// federated sites, whose jobs arrive by [`Engine::inject`].
    source: Option<Box<dyn JobSource + 'a>>,
    /// The arrival feed's head buffer, in arrival order: at most one job
    /// pulled ahead from `source` (pull-based admission keeps one arrival
    /// materialized), or the jobs injected so far on a federated site.
    arrivals: VecDeque<Job>,
    /// Whether this run has any fault events at all: false keeps every
    /// fault-handling branch dead, preserving bit-identical fault-free
    /// traces.
    faults_active: bool,
    cluster: Cluster,
    queue: WaitQueue,
    events: EventSet,
    running: BTreeMap<JobId, RunningJob>,
    /// Planned releases of running jobs, sorted by planned end — handed to
    /// every pass as a view instead of being rebuilt per pass.
    releases: ReleaseIndex,
    /// Per-pool-domain borrower sets (job ids charged to the pool).
    /// Maintained only under dynamic slowdown models; empty otherwise.
    borrowers: Vec<BTreeSet<JobId>>,
    /// Pools whose occupancy changed since the last re-dilation.
    dirty_pools: Vec<bool>,
    any_dirty: bool,
    /// Cached `slowdown.is_dynamic()`: whether re-dilation applies at all.
    dynamic: bool,
    /// Built-in metric observers (series, job records, fault counters) —
    /// every state change reaches them as a [`SimEvent`].
    obs: Builtins,
    /// User-attached observers; an empty slice on plain runs, so the
    /// dispatch loop is free then.
    extras: &'a mut [&'o mut dyn Observer],
    now: SimTime,
    start_time: SimTime,
    events_processed: u64,
    passes: u64,
    trace_hash: Fnv64,
    /// Fault bookkeeping for interrupted jobs (empty on fault-free runs).
    fault_meta: BTreeMap<JobId, FaultMeta>,
    /// Time of the last job-affecting event (arrival, finish, interrupt,
    /// start, rejection). Fault runs clamp every time-based metric to
    /// this instant: repair/drain-end events trailing the last job must
    /// not stretch makespan and dilute the utilizations.
    last_job_time: SimTime,
    /// The pending [`Event::Wake`] target, if one is scheduled — dedupes
    /// the wake a held pass asks for (every pass while held recomputes the
    /// same release instant).
    next_wake: Option<SimTime>,
    /// Jobs checkpoint-preempted for deadline-critical arrivals.
    preemptions: u64,
    /// Jobs currently deferred by `DeferUntilFeasible` admission — the
    /// set makes the `JobDeferred` observation fire once per job, not
    /// once per pass.
    deferred: BTreeSet<JobId>,
}

impl<'a, 'o> Engine<'a, 'o> {
    /// Build a run's engine. `source` feeds its arrivals; a federated site
    /// passes `None` (jobs come by [`Engine::inject`]) and pins its clock
    /// to the fleet's shared `origin` instead, so all sites' clocks and
    /// series origins agree at every epoch barrier.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        scheduler: &'a Scheduler,
        faults: &'a FaultSpec,
        service: &ServiceSpec,
        mut source: Option<Box<dyn JobSource + 'a>>,
        extras: &'a mut [&'o mut dyn Observer],
        origin: Option<SimTime>,
    ) -> Self {
        let cluster = Cluster::new(cfg.cluster);
        let open = !service.is_none();
        // The first arrival is pulled up front: it pins the time origin.
        let first = source.as_mut().and_then(|s| s.next_job());
        let jobs_hint = source
            .as_ref()
            .and_then(|s| s.size_hint())
            .map(|rest| rest as usize + usize::from(first.is_some()))
            .unwrap_or(0);
        let mut start_time = origin
            .or(first.as_ref().map(|j| j.arrival))
            .unwrap_or(SimTime::ZERO);
        // Expanding the scenario is a pure function of (spec, machine);
        // FaultSpec::none() yields an empty list and the pre-fault path.
        let fault_events = faults.materialize(&cfg.cluster);
        if let Some(&(first_fault, _)) = fault_events.first() {
            // Faults may precede the first arrival; the clock (and the
            // series origin) must not jump backwards onto them.
            start_time = start_time.min_of(first_fault);
        }
        let mut events = EventSet::new(cfg.event_queue);
        for &(at, action) in &fault_events {
            events.schedule(at, Event::Fault(action));
        }
        let domains = cluster.pools().len();
        let in_service = cluster.available_nodes();
        let engine = Engine {
            faults_active: !fault_events.is_empty(),
            queue: WaitQueue::new(),
            events,
            running: BTreeMap::new(),
            releases: ReleaseIndex::new(),
            borrowers: vec![BTreeSet::new(); domains],
            dirty_pools: vec![false; domains],
            any_dirty: false,
            dynamic: cfg.scheduler.slowdown.is_dynamic(),
            obs: Builtins {
                series: (!open).then(|| SeriesObserver::new(start_time, &cfg.cluster)),
                stats: (!open).then(|| JobStatsObserver::with_capacity(jobs_hint)),
                sketch: open.then(|| {
                    SketchStatsObserver::new(
                        start_time,
                        &cfg.cluster,
                        service.warmup_s,
                        service.slo_wait_s,
                    )
                }),
                faults: FaultObserver::new(start_time, in_service),
            },
            source,
            arrivals: first.into_iter().collect(),
            extras,
            now: start_time,
            start_time,
            events_processed: 0,
            passes: 0,
            trace_hash: Fnv64::new(),
            fault_meta: BTreeMap::new(),
            last_job_time: start_time,
            next_wake: None,
            preemptions: 0,
            deferred: BTreeSet::new(),
            cfg,
            scheduler,
            faults,
            cluster,
        };
        let ctx = RunContext {
            start: start_time,
            cluster: engine.cfg.cluster,
            jobs: jobs_hint,
            in_service_nodes: in_service,
            label: engine.scheduler.label(),
        };
        for o in engine.extras.iter_mut() {
            o.on_run_start(&ctx);
        }
        engine
    }

    /// Fan one observation out to the built-ins and every extra observer.
    fn emit(&mut self, ev: SimEvent) {
        if let Some(s) = &mut self.obs.series {
            s.on_event(&ev);
        }
        if let Some(s) = &mut self.obs.stats {
            s.on_event(&ev);
        }
        if let Some(s) = &mut self.obs.sketch {
            s.on_event(&ev);
        }
        self.obs.faults.on_event(&ev);
        for o in self.extras.iter_mut() {
            o.on_event(&ev);
        }
    }

    fn hash_mix(&mut self, vals: [u64; 3]) {
        for v in vals {
            self.trace_hash.write_u64(v);
        }
    }

    /// Arrival time of the feed's head, refilling the head buffer from
    /// the source when it is empty.
    fn next_arrival(&mut self) -> Option<SimTime> {
        if self.arrivals.is_empty() {
            match self.source.as_mut()?.next_job() {
                Some(job) => self.arrivals.push_back(job),
                None => self.source = None,
            }
        }
        self.arrivals.front().map(|j| j.arrival)
    }

    /// Process events strictly before `limit`, or every event when
    /// `limit` is `None`.
    ///
    /// A bounded call is the federation epoch step: the site advances to
    /// the barrier and returns with events at or past it still queued.
    /// While bounded, a drained event queue simply returns — more
    /// injections arrive at later barriers, so an idle queue is not the
    /// wedge it would be on a terminal drain.
    fn drive_bounded(&mut self, limit: Option<SimTime>) {
        loop {
            let next = match (self.next_arrival(), self.events.peek_time()) {
                (Some(a), Some(q)) => Some(a.min_of(q)),
                (a, q) => a.or(q),
            };
            let t = match next {
                Some(t) if limit.is_none_or(|lim| t < lim) => t,
                Some(_) => return,
                None => {
                    if limit.is_some() {
                        // Mid-run idle: later barriers bring more work.
                        return;
                    }
                    if self.queue.is_empty() {
                        break;
                    }
                    // Events drained but jobs still queued: they must start
                    // on the (partially) empty machine now.
                    let before = self.queue.len();
                    let started = self.pass();
                    if started == 0 && self.queue.len() == before {
                        if self.events.peek_time().is_some() {
                            // The pass held its batch and scheduled a
                            // wake-up; the loop continues on that event.
                            continue;
                        }
                        if self.faults_active {
                            // Permanent capacity loss (failed nodes with no
                            // pending repair) can leave a job unservable
                            // even though it fit the healthy machine. No
                            // event can change anything anymore, so it
                            // fails terminally instead of wedging the
                            // drain.
                            let entry = self.queue.pop_front();
                            self.hash_mix([13, self.now.as_micros(), entry.job.id.0]);
                            self.emit(SimEvent::JobFailed {
                                at: self.now,
                                record: JobRecord::failed_unstarted(entry.job),
                            });
                            self.last_job_time = self.now;
                            continue;
                        }
                        // lint: allow(panic) — a live simulation always has a next event; a wedged scheduler is an engine bug worth dying loudly for
                        panic!(
                            "scheduler wedged: {} queued jobs, {} running, no events",
                            self.queue.len(),
                            self.running.len()
                        );
                    }
                    continue;
                }
            };
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            let mut changed = false;
            // Every arrival due now is admitted before any queued event
            // pops — the one arrival order closed, open, and federated
            // runs share.
            while self.next_arrival() == Some(self.now) {
                // lint: allow(panic) — next_arrival just peeked this job
                let job = self.arrivals.pop_front().expect("peeked arrival");
                self.admit(job);
                changed = true;
            }
            while self.events.peek_time() == Some(self.now) {
                // lint: allow(panic) — the surrounding branch peeked this event
                let (_, ev) = self.events.pop().expect("peeked");
                changed |= self.process(ev);
            }
            if changed {
                self.batch_end();
            }
        }
    }

    /// Simulate every event strictly before `limit` (the epoch barrier).
    pub(crate) fn advance_until(&mut self, limit: SimTime) {
        self.drive_bounded(Some(limit));
    }

    /// Drain every remaining event and assemble the run's [`SimOutput`].
    pub(crate) fn finish(mut self) -> SimOutput {
        self.drive_bounded(None);
        assert!(self.running.is_empty(), "jobs still running at drain");
        assert_eq!(self.cluster.lease_count(), 0, "leaked leases");
        self.finalize()
    }

    /// Admit a job into this site engine at its true arrival time
    /// (federation routing). The coordinator routes each epoch's arrivals
    /// at the epoch barrier — before any site simulates past it — and in
    /// arrival order, so injections keep the arrival feed sorted.
    pub(crate) fn inject(&mut self, job: Job) {
        debug_assert!(job.arrival >= self.now, "injected job arrives in the past");
        debug_assert!(
            self.arrivals
                .back()
                .is_none_or(|b| b.arrival <= job.arrival),
            "injections must be issued in arrival order"
        );
        self.arrivals.push_back(job);
    }

    /// Observe the site for the meta-scheduler, tagged with its fleet
    /// index. Pure data — a site on a group thread sends its snapshot to
    /// the routing thread by value.
    pub(crate) fn snapshot(&self, site: usize) -> SiteSnapshot {
        let mem_capacity = self.cfg.cluster.total_local_mem() + self.cfg.cluster.total_pool_mem();
        let total_mem = mem_capacity as f64;
        let used = (self.cluster.total_local_used() + self.cluster.total_pool_used()) as f64;
        SiteSnapshot {
            site,
            queue_depth: self.queue.len(),
            queued_nodes: self.queue.total_requested_nodes(),
            free_nodes: self.cluster.free_nodes(),
            total_nodes: self.cfg.cluster.total_nodes(),
            mem_pressure: if total_mem > 0.0 {
                used / total_mem
            } else {
                0.0
            },
            mem_capacity,
        }
    }

    /// The one arrival path: same hash tag, same emitted event, same
    /// counters whether the job came from a workload, an open stream, or
    /// a federation injection — which is what makes a one-site fleet run
    /// bit-identical to the plain run of the same workload.
    fn admit(&mut self, job: Job) {
        self.hash_mix([1, self.now.as_micros(), job.id.0]);
        self.emit(SimEvent::JobSubmitted {
            at: self.now,
            job: job.clone(),
            resubmit: false,
        });
        self.queue.push(job, self.now);
        self.events_processed += 1;
        self.last_job_time = self.now;
    }

    /// Process one event; returns whether system state changed.
    fn process(&mut self, ev: Event) -> bool {
        match ev {
            Event::Finish { job, generation } => {
                let stale = self
                    .running
                    .get(&job)
                    .map(|r| r.generation != generation)
                    .unwrap_or(true);
                if stale {
                    return false;
                }
                self.finish_job(job);
                self.events_processed += 1;
                true
            }
            Event::Fault(action) => {
                self.events_processed += 1;
                self.apply_fault(action);
                true
            }
            Event::Wake => {
                // A held batch's budget expired: nothing to apply, but the
                // state "changed" so batch_end runs a pass.
                self.next_wake = None;
                self.events_processed += 1;
                true
            }
        }
    }

    /// Apply one machine perturbation: drive the node/pool state machine,
    /// interrupt displaced jobs, and keep the dilation bookkeeping dirty
    /// where pressure changed.
    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::NodeFail(node) => {
                self.hash_mix([5, self.now.as_micros(), node.0 as u64]);
                // lint: allow(panic) — FaultSpec validation pinned every target node to the cluster
                if self.cluster.fail_node(node).expect("validated fault node") {
                    self.emit_fault(action, true);
                    if let Some(lease) = self.cluster.holder(node) {
                        self.interrupt_job(JobId(lease));
                    }
                }
            }
            FaultAction::NodeRepair(node) => {
                self.hash_mix([6, self.now.as_micros(), node.0 as u64]);
                if self
                    .cluster
                    .repair_node(node)
                    // lint: allow(panic) — FaultSpec validation pinned every target node to the cluster
                    .expect("validated fault node")
                {
                    self.emit_fault(action, false);
                }
            }
            FaultAction::DrainStart(node) => {
                self.hash_mix([7, self.now.as_micros(), node.0 as u64]);
                // lint: allow(panic) — FaultSpec validation pinned every target node to the cluster
                if self.cluster.drain_node(node).expect("validated fault node") {
                    self.emit_fault(action, true);
                    // Hard drain: running work is checkpointed/resubmitted
                    // so the node frees for maintenance immediately.
                    if let Some(lease) = self.cluster.holder(node) {
                        self.interrupt_job(JobId(lease));
                    }
                }
            }
            FaultAction::DrainEnd(node) => {
                self.hash_mix([8, self.now.as_micros(), node.0 as u64]);
                if self
                    .cluster
                    .undrain_node(node)
                    // lint: allow(panic) — FaultSpec validation pinned every target node to the cluster
                    .expect("validated fault node")
                {
                    self.emit_fault(action, false);
                }
            }
            FaultAction::PoolDegrade { pool, factor } => {
                self.hash_mix([9, self.now.as_micros(), pool.0 as u64]);
                self.cluster
                    .set_pool_health(pool, factor)
                    // lint: allow(panic) — FaultSpec validation pinned the pool id and factor range
                    .expect("validated pool and factor");
                self.emit_fault(action, true);
                // Evict borrowers — lowest lease id first, deterministic —
                // until the remaining holdings fit the degraded capacity.
                loop {
                    let p = self.cluster.pool(pool);
                    if p.used() <= p.effective_capacity() {
                        break;
                    }
                    // lint: allow(panic) — a pool over its shrunk capacity necessarily has at least one holder
                    let (lease, _) = p.holders().next().expect("over-committed pool has holders");
                    self.interrupt_job(JobId(lease));
                }
                self.mark_pool_dirty(pool);
            }
            FaultAction::PoolRepair(pool) => {
                self.hash_mix([10, self.now.as_micros(), pool.0 as u64]);
                self.cluster
                    .set_pool_health(pool, 1.0)
                    // lint: allow(panic) — FaultSpec validation pinned the pool id
                    .expect("validated pool");
                self.emit_fault(action, false);
                self.mark_pool_dirty(pool);
            }
        }
    }

    /// Emit the observation for a fault transition that took hold,
    /// carrying the post-transition in-service node count (the fault
    /// observer keeps the availability integral from exactly these).
    /// Emitted *before* the interruptions the fault causes, so traces
    /// read cause-then-effect; node availability is unaffected by the
    /// interruptions themselves.
    fn emit_fault(&mut self, action: FaultAction, applied: bool) {
        let nodes_in_service = self.cluster.available_nodes();
        let ev = if applied {
            SimEvent::FaultApplied {
                at: self.now,
                action,
                nodes_in_service,
            }
        } else {
            SimEvent::FaultCleared {
                at: self.now,
                action,
                nodes_in_service,
            }
        };
        self.emit(ev);
    }

    /// Mark a pool's pressure as changed (degradation moves pressure even
    /// when occupancy is untouched), so re-dilation revisits its borrowers.
    fn mark_pool_dirty(&mut self, pool: dmhpc_platform::PoolId) {
        if self.dynamic {
            self.dirty_pools[pool.0 as usize] = true;
            self.any_dirty = true;
        }
    }

    /// Interrupt a running job (fault displaced its capacity): release
    /// everything it holds, then resubmit it per the scenario's
    /// [`InterruptPolicy`] — or fail it terminally once its resubmission
    /// budget is spent.
    fn interrupt_job(&mut self, id: JobId) {
        let r = self.release_running(id, 11);
        let meta = self.fault_meta.entry(id).or_default();
        meta.next_gen = r.generation + 1;
        let attempt_wall = self.now - r.start;

        if meta.resubmits >= self.faults.max_resubmits {
            // Terminal failure: record the final attempt. The aborted
            // attempt's wall clock is rework.
            self.emit(SimEvent::JobInterrupted {
                at: self.now,
                job: id,
                rework_s: attempt_wall.as_secs_f64(),
                resubmitted: false,
            });
            self.hash_mix([12, self.now.as_micros(), id.0]);
            let consumed = r.job.runtime.saturating_sub(r.work_remaining);
            let record = r.into_record(JobOutcome::Failed, self.now, consumed);
            self.emit(SimEvent::JobFailed {
                at: self.now,
                record,
            });
            return;
        }
        meta.resubmits += 1;
        let (job, rework_s) = match self.faults.interrupt {
            InterruptPolicy::Resubmit => {
                // From scratch: the whole aborted attempt is rework.
                (r.job, attempt_wall.as_secs_f64())
            }
            InterruptPolicy::Checkpoint { overhead_s } => {
                // Completed work survives; only the restore overhead is
                // redone. The resubmitted job carries its remaining work.
                let overhead = SimDuration::from_secs(overhead_s);
                let mut job = r.job;
                job.runtime = r.work_remaining + overhead;
                (job, overhead.as_secs_f64())
            }
        };
        self.emit(SimEvent::JobInterrupted {
            at: self.now,
            job: id,
            rework_s,
            resubmitted: true,
        });
        self.hash_mix([14, self.now.as_micros(), job.id.0]);
        self.emit(SimEvent::JobSubmitted {
            at: self.now,
            job: job.clone(),
            resubmit: true,
        });
        self.queue.push(job, self.now);
    }

    /// The policy context the engine itself prices feasibility with —
    /// the same bundle `Scheduler::schedule` hands to policies.
    fn sched_ctx(&self) -> SchedContext<'_> {
        SchedContext::new(
            self.now,
            &self.cluster,
            &self.scheduler.config().slowdown,
            self.releases.view(),
            self.scheduler.slo_target(),
        )
    }

    /// The front-most queued job that justifies preemption: stamped with
    /// a still-feasible deadline (laxity prices its best up-capacity
    /// shape) that would be lost by waiting for the earliest planned
    /// release. Returns its id, laxity, and nominal node demand.
    fn preempt_candidate(&self) -> Option<(JobId, f64, usize)> {
        let first_release = self.releases.view().iter().next()?.planned_end;
        let ctx = self.sched_ctx();
        let placement = self.scheduler.placement();
        for entry in self.queue.iter() {
            let job = &entry.job;
            let Some(deadline) = ctx.deadline(job) else {
                continue;
            };
            let Some(laxity) = ctx.laxity_s(job) else {
                continue;
            };
            if laxity < 0.0 {
                continue; // deadline already lost: preemption cannot help
            }
            let Some((demand, _)) = placement.nominal_shape(job, &ctx) else {
                continue;
            };
            let Some(best) = placement.best_dilation(job, &ctx) else {
                continue;
            };
            let wall = job.walltime.as_secs_f64();
            if wall * (best - 1.0) > laxity {
                continue; // cannot meet even if started this instant
            }
            if first_release.as_secs_f64() + wall * best <= deadline.as_secs_f64() {
                continue; // waiting for the next natural release still meets
            }
            return Some((job.id, laxity, demand.nodes as usize));
        }
        None
    }

    /// Deadline-priced preemption (opt-in via [`PreemptPolicy`]): when a
    /// queued stamped job could still meet its deadline by starting now
    /// but not by waiting for the next natural release, checkpoint the
    /// laxity-richest running jobs until its nominal shape has the nodes,
    /// re-pass, and resubmit the checkpointed work only after that pass —
    /// the critical job must win the freed capacity, not its evictees.
    fn maybe_preempt(&mut self) {
        let PreemptPolicy::LaxityCheckpoint { overhead_s } = self.scheduler.config().preempt else {
            return;
        };
        if self.queue.is_empty() || self.running.is_empty() {
            return;
        }
        let Some((for_job, cand_laxity, needed_nodes)) = self.preempt_candidate() else {
            return;
        };
        // Victims in descending laxity (deadline-free jobs, laxity ∞,
        // first), ties by ascending id — and never a job as critical as
        // the one being rescued.
        let mut victims: Vec<(f64, JobId)> = {
            let ctx = self.sched_ctx();
            self.running
                .values()
                .filter_map(|r| {
                    let laxity = ctx.laxity_s(&r.job).unwrap_or(f64::INFINITY);
                    (laxity > cand_laxity).then_some((laxity, r.job.id))
                })
                .collect()
        };
        victims.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                // lint: allow(panic) — laxities are finite arithmetic on validated deadlines; NaN is an engine bug
                .expect("laxities are comparable")
                .then(a.1.cmp(&b.1))
        });
        let mut free = self.cluster.free_nodes();
        let mut resubmits = Vec::new();
        for (_, victim) in victims {
            if free >= needed_nodes {
                break;
            }
            free += self.running[&victim].assignment.node_count();
            resubmits.push(self.preempt_release(victim, for_job, overhead_s));
        }
        if resubmits.is_empty() {
            return;
        }
        self.re_dilate();
        let mut started = self.pass();
        for job in resubmits {
            self.hash_mix([16, self.now.as_micros(), job.id.0]);
            self.emit(SimEvent::JobSubmitted {
                at: self.now,
                job: job.clone(),
                resubmit: true,
            });
            self.queue.push(job, self.now);
        }
        // One more pass so leftover capacity (and anything the evictions
        // freed beyond the critical job's shape) is claimed at this
        // instant — preemption must stay work-conserving.
        started += self.pass();
        if started > 0 {
            self.re_dilate();
        }
    }

    /// Checkpoint-release one running job to free capacity for `for_job`:
    /// the capacity-release half of [`Engine::interrupt_job`], but never
    /// terminal — preemption is a scheduling decision, not a fault, so it
    /// neither consumes the fault model's resubmission budget nor can it
    /// fail a job. Returns the checkpointed job; the caller resubmits it
    /// after the rescue pass.
    fn preempt_release(&mut self, id: JobId, for_job: JobId, overhead_s: u64) -> Job {
        let r = self.release_running(id, 15);
        // Restart generations guard against the aborted attempt's
        // in-flight finish event, exactly as fault interruptions do.
        self.fault_meta.entry(id).or_default().next_gen = r.generation + 1;
        // Checkpointed: completed work survives; the restore overhead is
        // the only rework.
        let overhead = SimDuration::from_secs(overhead_s);
        let mut job = r.job;
        job.runtime = r.work_remaining + overhead;
        self.emit(SimEvent::JobPreempted {
            at: self.now,
            job: id,
            for_job,
        });
        self.preemptions += 1;
        job
    }

    fn finish_job(&mut self, id: JobId) {
        let r = self.release_running(id, 2);
        let (outcome, consumed) = if r.ends_by_kill {
            (
                JobOutcome::Killed,
                r.job.runtime.saturating_sub(r.work_remaining),
            )
        } else {
            // Natural completion: work is consumed exactly.
            (JobOutcome::Completed, r.job.runtime)
        };
        let record = r.into_record(outcome, self.now, consumed);
        self.emit(SimEvent::JobFinished {
            at: self.now,
            record,
        });
    }

    /// Take running job `id` off the machine — the release half shared by
    /// finishes, fault interruptions and preemptions: settle the work it
    /// consumed at its current rate, return its lease and release-index
    /// entry, emit `AllocationReleased`, and fold `tag` into the trace
    /// hash. Returns the job's settled running state.
    fn release_running(&mut self, id: JobId, tag: u64) -> RunningJob {
        self.last_job_time = self.now;
        let mut r = self
            .running
            .remove(&id)
            // lint: allow(panic) — finishes, interrupts and preemption victims all come from the running set
            .expect("release of a job that is not running");
        let elapsed = self.now - r.last_update;
        r.work_remaining = r
            .work_remaining
            .saturating_sub(elapsed.scale(1.0 / r.dilation));
        self.cluster
            .release(id.as_u64())
            // lint: allow(panic) — every started job allocated a lease; missing one is an engine bug
            .expect("running job holds a lease");
        let release = self
            .releases
            .remove(id.as_u64())
            // lint: allow(panic) — every started job is registered in the release index
            .expect("running job is release-indexed");
        self.note_pool_change(id, &release.pool_per_domain, false);
        self.emit(SimEvent::AllocationReleased {
            at: self.now,
            job: id,
            nodes: r.assignment.node_count() as u32,
            local_mib: r.assignment.local_per_node * r.assignment.node_count() as u64,
            remote_mib: r.assignment.total_remote(),
        });
        self.hash_mix([tag, self.now.as_micros(), id.0]);
        r
    }

    /// Pressure input for a running job: the highest pressure among the pool
    /// domains its nodes charge.
    fn job_pressure(&self, assignment: &MemoryAssignment) -> f64 {
        if assignment.remote_per_node == 0 {
            return 0.0;
        }
        let mut max_p = 0.0f64;
        for &node in &assignment.nodes {
            if let Some(pool) = self.cluster.pool_of(node) {
                max_p = max_p.max(self.cluster.pool(pool).pressure());
            }
        }
        max_p
    }

    /// Record a pool-occupancy change for `job` under the dynamic model:
    /// maintain the borrower index and mark the touched pools dirty.
    /// `pool_per_domain` is the job's release record — exactly the pools
    /// its nodes charge.
    fn note_pool_change(&mut self, job: JobId, pool_per_domain: &[u64], starting: bool) {
        if !self.dynamic {
            return;
        }
        for (p, &amount) in pool_per_domain.iter().enumerate() {
            if amount == 0 {
                continue;
            }
            if starting {
                self.borrowers[p].insert(job);
            } else {
                self.borrowers[p].remove(&job);
            }
            self.dirty_pools[p] = true;
            self.any_dirty = true;
        }
    }

    /// Recompute dilation of running borrowers under the contention model;
    /// reschedule finishes whose dilation changed. Pool-scoped: only jobs
    /// charged to pools whose occupancy changed since the last call are
    /// visited — everyone else's dilation inputs are unchanged, so the old
    /// whole-set sweep would have recomputed their dilation to the same
    /// value and skipped them anyway.
    fn re_dilate(&mut self) {
        if !self.dynamic || !self.any_dirty {
            return;
        }
        // Union of the dirty pools' borrowers, in ascending job-id order —
        // the same deterministic order the full sweep used.
        let mut ids: BTreeSet<JobId> = BTreeSet::new();
        for (p, dirty) in self.dirty_pools.iter_mut().enumerate() {
            if *dirty {
                ids.extend(self.borrowers[p].iter().copied());
                *dirty = false;
            }
        }
        self.any_dirty = false;
        for id in ids {
            let pressure = {
                let r = &self.running[&id];
                self.job_pressure(&r.assignment)
            };
            // lint: allow(panic) — the id came from iterating this same map moments ago
            let r = self.running.get_mut(&id).expect("listed above");
            let new_dilation = self.cfg.scheduler.slowdown.dilation(DilationInputs {
                far_fraction: r.assignment.far_fraction(),
                intensity: r.job.intensity,
                pool_pressure: pressure,
            });
            if (new_dilation - r.dilation).abs() < 1e-9 {
                continue;
            }
            // Settle work at the old rate, then switch rates.
            let elapsed = self.now - r.last_update;
            let consumed = elapsed.scale(1.0 / r.dilation);
            r.work_remaining = r.work_remaining.saturating_sub(consumed);
            r.last_update = self.now;
            r.dilation = new_dilation;
            r.generation += 1;
            let natural = self.now + r.work_remaining.scale(new_dilation);
            let effective = natural.min_of(r.kill_time);
            r.ends_by_kill = r.kill_time < natural;
            let generation = r.generation;
            self.events.schedule(
                effective,
                Event::Finish {
                    job: id,
                    generation,
                },
            );
        }
    }

    /// One scheduling pass; returns how many jobs started. The release
    /// list is not rebuilt here — the pass reads the persistent index.
    fn pass(&mut self) -> usize {
        let result = self.scheduler.schedule(
            self.now,
            &mut self.queue,
            &mut self.cluster,
            self.releases.view(),
        );
        self.passes += 1;
        if let Some(until) = result.hold_until {
            // Batch held: make sure a wake-up exists at the release
            // instant (deduped — holds recompute the same target until
            // the batch goes out).
            if self.next_wake != Some(until) {
                self.events.schedule(until, Event::Wake);
                self.next_wake = Some(until);
            }
        }
        let rejected = result.rejected.len();
        for (job, _reason) in result.rejected {
            self.hash_mix([3, self.now.as_micros(), job.id.0]);
            self.emit(SimEvent::JobRejected {
                at: self.now,
                record: JobRecord::rejected(job),
            });
        }
        for (id, recheck_at) in result.deferred {
            // Deferred jobs stay queued; the observation fires once per
            // job. Nothing here under `AdmitAll`, which never defers.
            if self.deferred.insert(id) {
                self.hash_mix([17, self.now.as_micros(), id.0]);
                self.emit(SimEvent::JobDeferred {
                    at: self.now,
                    job: id,
                    recheck_at,
                });
            }
        }
        if let Some(recheck) = result.recheck_at {
            // Make sure admission re-assesses at the earliest feasibility
            // lapse even if no natural event intervenes (same deduped
            // wake-up the batch hold uses).
            if recheck > self.now && self.next_wake != Some(recheck) {
                self.events.schedule(recheck, Event::Wake);
                self.next_wake = Some(recheck);
            }
        }
        let n = result.started.len();
        if n > 0 || rejected > 0 {
            self.last_job_time = self.now;
        }
        for started in result.started {
            self.start_job(started);
        }
        self.emit(SimEvent::PassCompleted {
            at: self.now,
            started: n,
            rejected,
            queued: self.queue.len(),
        });
        n
    }

    fn start_job(&mut self, s: StartedJob) {
        let StartedJob {
            job,
            assignment,
            dilation,
            planned_walltime,
        } = s;
        self.emit(SimEvent::JobStarted {
            at: self.now,
            job: job.id,
            nodes: assignment.node_count() as u32,
            dilation,
        });
        self.emit(SimEvent::AllocationGrabbed {
            at: self.now,
            job: job.id,
            nodes: assignment.node_count() as u32,
            local_mib: assignment.local_per_node * assignment.node_count() as u64,
            remote_mib: assignment.total_remote(),
        });
        self.hash_mix([4, self.now.as_micros(), job.id.0]);
        // Index the planned release now; it never changes while running
        // (planned ends are walltime-based, so re-dilation cannot move
        // them) and is removed at finish.
        let planned_end = self.now + planned_walltime;
        let release = RunningRelease::of(&self.cluster, &assignment, planned_end);
        self.note_pool_change(job.id, &release.pool_per_domain, true);
        self.releases.insert(job.id.as_u64(), release);
        let kill_time = if self.cfg.enforce_walltime {
            self.now + planned_walltime
        } else {
            SimTime::MAX
        };
        let natural = self.now + job.runtime.scale(dilation);
        let effective = natural.min_of(kill_time);
        // Restarted-after-interruption jobs begin above every generation of
        // their earlier attempts, so an aborted attempt's in-flight finish
        // event can never be mistaken for this one's. Fault-free runs have
        // an empty meta map and start at 0, as before.
        let generation = self
            .fault_meta
            .get(&job.id)
            .map(|m| m.next_gen)
            .unwrap_or(0);
        let running = RunningJob {
            work_remaining: job.runtime,
            job,
            start: self.now,
            assignment,
            kill_time,
            dilation_planned: dilation,
            dilation,
            last_update: self.now,
            generation,
            ends_by_kill: kill_time < natural,
        };
        let id = running.job.id;
        self.events.schedule(
            effective,
            Event::Finish {
                job: id,
                generation,
            },
        );
        self.running.insert(id, running);
    }

    fn batch_end(&mut self) {
        // Pressure may have dropped (finishes): settle borrowers first so
        // the pass plans against up-to-date state.
        self.re_dilate();
        // Event-driven gating: with nothing queued, a pass cannot start or
        // reject anything — skip it (and its release-view plumbing)
        // entirely. This is what makes passes ≤ events, strictly fewer
        // whenever finishes drain into an empty queue.
        if !self.queue.is_empty() {
            let started = self.pass();
            if started > 0 {
                // New borrowers raise pressure for everyone already running.
                self.re_dilate();
            }
            self.maybe_preempt();
        }
        if self.cfg.check_invariants {
            self.cluster
                .verify_invariants()
                // lint: allow(panic) — repair restores exactly what the failure removed
                .expect("cluster invariants violated");
            let busy = self.cluster.used_nodes() as f64;
            if let Some(series) = &self.obs.series {
                assert_eq!(
                    series.bundle().nodes_busy.stats().current(),
                    busy,
                    "series out of sync with cluster"
                );
            }
            // Availability invariant: by the end of every batch, no job
            // occupies a Down/Draining node (faults interrupt displaced
            // jobs within the event that displaced them).
            for r in self.running.values() {
                for &node in &r.assignment.nodes {
                    assert_eq!(
                        self.cluster.node_state(node),
                        NodeState::Up,
                        "job {} occupies out-of-service node {node}",
                        r.job.id
                    );
                }
            }
        }
    }

    fn finalize(self) -> SimOutput {
        debug_assert!(self.releases.is_empty(), "release index drained");
        debug_assert!(
            self.borrowers.iter().all(BTreeSet::is_empty),
            "borrower index drained"
        );
        let Engine {
            cfg,
            scheduler,
            faults_active,
            obs,
            extras,
            now,
            start_time,
            events_processed,
            passes,
            trace_hash,
            last_job_time,
            preemptions,
            ..
        } = self;
        let trace_hash = trace_hash.finish();
        // Fault runs clamp the metrics window to the last job-affecting
        // event: repair/drain-end events trailing the last finish (the
        // generator's horizon routinely outlives short workloads) would
        // otherwise stretch makespan and dilute every time-weighted
        // metric with idle tail. Fault-free runs keep `now` — their
        // metrics are pinned by the golden-parity tests.
        let end = if faults_active {
            last_job_time.max_of(start_time)
        } else {
            now
        };
        let makespan = end.saturating_since(start_time);
        let run_end = RunEnd {
            at: now,
            end,
            events_processed,
            passes,
            trace_hash,
        };
        for o in extras.iter_mut() {
            o.on_run_end(&run_end);
        }
        let thresholds = ClassThresholds::standard(cfg.cluster.node.local_mem);
        if let Some(sketch) = obs.sketch {
            // Service run: the report is synthesized from the O(1)
            // sketches; no records, an empty origin series. Service runs
            // carry no fault scenario (rejected at attach), so the fault
            // summary is the default with avail_util == node_util.
            let (report, summary) = sketch.finalize(&scheduler.label(), end, None, &thresholds);
            let faults = FaultSummary {
                avail_util: report.node_util,
                ..FaultSummary::default()
            };
            return SimOutput {
                report,
                records: Vec::new(),
                series: SeriesBundle::new(start_time, &cfg.cluster),
                events_processed,
                passes,
                trace_hash,
                end_time: now,
                faults,
                preemptions,
                service: Some(summary),
            };
        }
        // SimOutput is assembled from the built-in observers' final state:
        // the series bundle, the record list, and the fault summary
        // (whose availability-weighted metrics derive over [start, end] —
        // without downtime inside the window, avail_util is the *same
        // expression* as node_util, bit-equal, so fault-free outputs are
        // unchanged).
        let series = obs
            .series
            // lint: allow(panic) — close() sealed the series before output assembly
            .expect("closed runs carry a series")
            .into_bundle();
        let records = obs
            .stats
            // lint: allow(panic) — close() sealed the job stats before output assembly
            .expect("closed runs carry job stats")
            .into_records();
        let node_util = series.node_util(end);
        let summary = obs.faults.finalize(
            end,
            makespan,
            cfg.cluster.total_nodes() as f64,
            node_util,
            &series,
        );
        let data = RunData {
            label: scheduler.label(),
            records,
            makespan_s: makespan.as_secs_f64(),
            node_util,
            pool_util: series.pool_util(end),
            dram_util: series.dram_util(end),
            queue_depth_mean: series.queue_depth_mean(end),
            queue_depth_max: series.queue_depth_max(),
            faults: summary,
        };
        SimOutput {
            report: SimReport::compute(&data, &thresholds),
            records: data.records,
            series,
            events_processed,
            passes,
            trace_hash,
            end_time: now,
            faults: summary,
            preemptions,
            service: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_platform::{ClusterSpec, NodeSpec, PoolTopology, SlowdownModel};
    use dmhpc_sched::{MemoryPolicy, SchedulerBuilder};
    use dmhpc_workload::JobBuilder;

    const GIB: u64 = 1024;

    fn machine(pool: PoolTopology) -> ClusterSpec {
        ClusterSpec::new(1, 4, NodeSpec::new(64, 256 * GIB), pool)
    }

    fn sim(pool: PoolTopology, memory: MemoryPolicy, slowdown: SlowdownModel) -> Simulation {
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(slowdown)
            .build();
        Simulation::new(SimConfig::new(machine(pool), sched).checked()).unwrap()
    }

    fn local_sim() -> Simulation {
        sim(
            PoolTopology::None,
            MemoryPolicy::LocalOnly,
            SlowdownModel::None,
        )
    }

    #[test]
    fn single_job_lifecycle() {
        let w = Workload::from_jobs(vec![JobBuilder::new(1)
            .arrival_secs(10)
            .nodes(2)
            .runtime_secs(100, 200)
            .mem_per_node(GIB)
            .build()]);
        let out = local_sim().run(&w);
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed);
        assert_eq!(r.start.unwrap().as_secs(), 10, "starts immediately");
        assert_eq!(r.finish.unwrap().as_secs(), 110);
        assert_eq!(r.wait().unwrap().as_secs(), 0);
        assert_eq!(out.report.completed, 1);
        // 2 of 4 nodes busy for the full 100 s makespan.
        assert!((out.report.node_util - 0.5).abs() < 1e-9);
        assert_eq!(out.end_time.as_secs(), 110);
    }

    #[test]
    fn fcfs_serializes_full_machine_jobs() {
        let mk = |id: u64, arr: u64| {
            JobBuilder::new(id)
                .arrival_secs(arr)
                .nodes(4)
                .runtime_secs(100, 150)
                .mem_per_node(GIB)
                .build()
        };
        let w = Workload::from_jobs(vec![mk(1, 0), mk(2, 0), mk(3, 0)]);
        let out = local_sim().run(&w);
        let waits: Vec<u64> = out
            .records
            .iter()
            .map(|r| r.wait().unwrap().as_secs())
            .collect();
        assert_eq!(waits, vec![0, 100, 200]);
        assert_eq!(out.report.completed, 3);
        assert!((out.report.node_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn easy_backfill_improves_small_job_wait() {
        // Head needs 4 nodes blocked behind a 2-node job; a 1-node short
        // job backfills.
        let w = Workload::from_jobs(vec![
            JobBuilder::new(1)
                .arrival_secs(0)
                .nodes(2)
                .runtime_secs(1000, 1200)
                .mem_per_node(GIB)
                .build(),
            JobBuilder::new(2)
                .arrival_secs(10)
                .nodes(4)
                .runtime_secs(500, 600)
                .mem_per_node(GIB)
                .build(),
            JobBuilder::new(3)
                .arrival_secs(20)
                .nodes(1)
                .runtime_secs(100, 200)
                .mem_per_node(GIB)
                .build(),
        ]);
        let out = local_sim().run(&w);
        let by_id = |id: u64| out.records.iter().find(|r| r.job.id.0 == id).unwrap();
        assert_eq!(
            by_id(3).start.unwrap().as_secs(),
            20,
            "backfilled at arrival"
        );
        assert_eq!(by_id(2).start.unwrap().as_secs(), 1000, "head at release");
    }

    #[test]
    fn walltime_kill() {
        // Runtime 500 but walltime 100: killed at 100.
        let mut job = JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(500, 3600)
            .mem_per_node(GIB)
            .build();
        job.walltime = SimDuration::from_secs(100);
        let w = Workload::from_jobs(vec![job]);
        let out = local_sim().run(&w);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Killed);
        assert_eq!(r.finish.unwrap().as_secs(), 100);
        assert_eq!(out.report.killed, 1);
    }

    #[test]
    fn no_enforcement_lets_jobs_finish() {
        let mut job = JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(500, 3600)
            .mem_per_node(GIB)
            .build();
        job.walltime = SimDuration::from_secs(100);
        let w = Workload::from_jobs(vec![job]);
        let sched = SchedulerBuilder::new().build();
        let mut cfg = SimConfig::new(machine(PoolTopology::None), sched).checked();
        cfg.enforce_walltime = false;
        let out = Simulation::new(cfg).unwrap().run(&w);
        assert_eq!(out.records[0].outcome, JobOutcome::Completed);
        assert_eq!(out.records[0].finish.unwrap().as_secs(), 500);
    }

    #[test]
    fn static_dilation_stretches_runtime() {
        // Borrower: 384 GiB/node on a 256 GiB node → far = 1/3. With
        // penalty 1.6 and intensity 0.75: dilation = 1 + 0.6·(1/3)·0.75 = 1.15.
        let job = JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(1000, 4000)
            .mem_per_node(384 * GIB)
            .intensity(0.75)
            .build();
        let w = Workload::from_jobs(vec![job]);
        let out = sim(
            PoolTopology::PerRack {
                mib_per_rack: 512 * GIB,
            },
            MemoryPolicy::PoolFirstFit,
            SlowdownModel::Linear { penalty: 1.6 },
        )
        .run(&w);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed);
        assert_eq!(r.residence().unwrap().as_secs(), 1150);
        assert!((r.dilation_actual - 1.15).abs() < 1e-6);
        assert!((r.dilation_planned - 1.15).abs() < 1e-6);
        assert!(r.borrowed_pool());
    }

    #[test]
    fn walltime_inflation_saves_dilated_jobs() {
        // Runtime 1000, walltime 1100, dilation 1.15 → natural 1150 > 1100.
        // With inflation the kill limit stretches to 1100×1.15 = 1265 → OK.
        let job = JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(1000, 1100)
            .mem_per_node(384 * GIB)
            .intensity(0.75)
            .build();
        let w = Workload::from_jobs(vec![job.clone()]);
        let pool = PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        };
        let model = SlowdownModel::Linear { penalty: 1.6 };

        let with = sim(pool, MemoryPolicy::PoolFirstFit, model).run(&w);
        assert_eq!(with.records[0].outcome, JobOutcome::Completed);

        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolFirstFit)
            .slowdown(model)
            .inflate_walltime(false)
            .build();
        let without = Simulation::new(SimConfig::new(machine(pool), sched).checked())
            .unwrap()
            .run(&w);
        assert_eq!(
            without.records[0].outcome,
            JobOutcome::Killed,
            "ablation A1: without inflation the dilated job dies"
        );
        assert_eq!(without.records[0].finish.unwrap().as_secs(), 1100);
    }

    #[test]
    fn contention_redilation_slows_first_borrower() {
        let pool = PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        };
        let model = SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        };
        let a = JobBuilder::new(1)
            .arrival_secs(0)
            .nodes(1)
            .runtime_secs(1000, 4000)
            .mem_per_node(384 * GIB)
            .intensity(1.0)
            .build();
        let b = JobBuilder::new(2)
            .arrival_secs(200)
            .nodes(1)
            .runtime_secs(1000, 4000)
            .mem_per_node(384 * GIB)
            .intensity(1.0)
            .build();

        let solo =
            sim(pool, MemoryPolicy::PoolFirstFit, model).run(&Workload::from_jobs(vec![a.clone()]));
        let duo =
            sim(pool, MemoryPolicy::PoolFirstFit, model).run(&Workload::from_jobs(vec![a, b]));
        let solo_res = solo.records[0].residence().unwrap();
        let duo_a = duo
            .records
            .iter()
            .find(|r| r.job.id.0 == 1)
            .unwrap()
            .residence()
            .unwrap();
        assert!(
            duo_a > solo_res,
            "contention from job 2 must slow job 1 ({duo_a} vs {solo_res})"
        );
        // And consumed work stayed conserved: both completed.
        assert!(duo
            .records
            .iter()
            .all(|r| r.outcome == JobOutcome::Completed));
        // Dilation bounded by the model's worst case.
        let worst = model.worst_case();
        for r in &duo.records {
            assert!(r.dilation_actual <= worst + 1e-6);
            assert!(r.dilation_actual >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn rejected_job_recorded() {
        let w = Workload::from_jobs(vec![
            JobBuilder::new(1).nodes(99).runtime_secs(10, 20).build(),
            JobBuilder::new(2)
                .nodes(1)
                .runtime_secs(10, 20)
                .mem_per_node(GIB)
                .build(),
        ]);
        let out = local_sim().run(&w);
        assert_eq!(out.report.rejected, 1);
        assert_eq!(out.report.completed, 1);
    }

    #[test]
    fn conservative_rejects_impossible_job_queued_behind_blocked_head() {
        // The full-machine head waits for job 1; the 99-node job behind it
        // can never run and must be rejected, not reserved.
        let mk = |id: u64, arrival: u64, nodes: u32| {
            JobBuilder::new(id)
                .arrival_secs(arrival)
                .nodes(nodes)
                .runtime_secs(100, 200)
                .mem_per_node(GIB)
                .build()
        };
        let w = Workload::from_jobs(vec![mk(1, 0, 2), mk(2, 10, 4), mk(3, 20, 99)]);
        let sched = SchedulerBuilder::new()
            .backfill(dmhpc_sched::BackfillPolicy::Conservative)
            .build();
        let out = Simulation::new(SimConfig::new(machine(PoolTopology::None), sched).checked())
            .unwrap()
            .run(&w);
        assert_eq!(out.report.completed, 2);
        assert_eq!(out.report.rejected, 1);
        let rejected = out.records.iter().find(|r| r.job.id.0 == 3).unwrap();
        assert_eq!(rejected.outcome, JobOutcome::Rejected);
        assert_eq!(rejected.finish, None);
    }

    #[test]
    fn deterministic_trace_hash() {
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(300);
        let w = spec.generate(42);
        let cluster = ClusterSpec::new(
            4,
            32,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 512 * GIB,
            },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Saturating {
                penalty: 1.5,
                curvature: 3.0,
            })
            .build();
        let cfg = SimConfig::new(cluster, sched);
        let a = Simulation::new(cfg).unwrap().run(&w);
        let b = Simulation::new(cfg).unwrap().run(&w);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.report.mean_wait_s, b.report.mean_wait_s);
        assert_eq!(a.events_processed, b.events_processed);
        assert!(a.events_processed >= 600, "arrivals + finishes");
    }

    #[test]
    fn end_to_end_synthetic_with_invariants() {
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(200);
        let w = spec.generate(7);
        let cluster = ClusterSpec::new(
            4,
            32,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        );
        for memory in [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.3 },
        ] {
            let sched = SchedulerBuilder::new()
                .memory(memory)
                .slowdown(SlowdownModel::Linear { penalty: 1.5 })
                .build();
            let cfg = SimConfig::new(cluster, sched).checked();
            let out = Simulation::new(cfg).unwrap().run(&w);
            assert_eq!(
                out.report.completed + out.report.killed + out.report.rejected,
                200,
                "{}: every job accounted for",
                memory.name()
            );
            assert!(out.report.node_util > 0.0 && out.report.node_util <= 1.0);
            // All waits non-negative and starts after arrivals by contract.
            for r in &out.records {
                if let Some(s) = r.start {
                    assert!(s >= r.job.arrival);
                }
            }
        }
    }

    #[test]
    fn empty_workload() {
        let out = local_sim().run(&Workload::new());
        assert_eq!(out.records.len(), 0);
        assert_eq!(out.report.completed, 0);
        assert_eq!(out.events_processed, 0);
    }

    #[test]
    fn passes_are_event_driven() {
        // One isolated job: its arrival needs a pass, its finish drains
        // into an empty queue and must NOT trigger one.
        let w = Workload::from_jobs(vec![JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(100, 200)
            .mem_per_node(GIB)
            .build()]);
        let out = local_sim().run(&w);
        assert_eq!(out.events_processed, 2, "arrival + finish");
        assert_eq!(out.passes, 1, "only the arrival schedules");

        // Widely spaced jobs (idle stretches): one pass per arrival, none
        // per finish → passes == jobs, events == 2×jobs.
        let spaced: Vec<_> = (0..20)
            .map(|i| {
                JobBuilder::new(i + 1)
                    .arrival_secs(i * 10_000)
                    .nodes(1)
                    .runtime_secs(100, 200)
                    .mem_per_node(GIB)
                    .build()
            })
            .collect();
        let out = local_sim().run(&Workload::from_jobs(spaced));
        assert_eq!(out.events_processed, 40);
        assert_eq!(out.passes, 20, "finishes into an empty queue skip");
        assert!(out.passes < out.events_processed);
    }

    // ------------------------------------------------------------ faults

    use crate::faults::{FaultAction, FaultGenerator, InterruptPolicy};
    use dmhpc_platform::{NodeId, PoolId};

    fn one_node_job(runtime_s: u64, wall_s: u64) -> Job {
        JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(runtime_s, wall_s)
            .mem_per_node(GIB)
            .build()
    }

    fn faulty_sim(faults: crate::FaultSpec) -> Simulation {
        let sched = SchedulerBuilder::new().build();
        Simulation::new(SimConfig::new(machine(PoolTopology::None), sched).checked())
            .unwrap()
            .with_fault_spec(faults)
            .unwrap()
    }

    #[test]
    fn node_failure_interrupts_and_resubmits_from_scratch() {
        // Job on node 0 (first-fit), failed at t=300, repaired at t=800.
        // Resubmit-from-scratch restarts immediately on node 1 at t=300.
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(300), FaultAction::NodeFail(NodeId(0)))
            .with_action(SimTime::from_secs(800), FaultAction::NodeRepair(NodeId(0)));
        let w = Workload::from_jobs(vec![one_node_job(1000, 2000)]);
        let out = faulty_sim(faults).run(&w);
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed);
        assert_eq!(r.start.unwrap().as_secs(), 300, "final attempt's start");
        assert_eq!(r.finish.unwrap().as_secs(), 1300, "full runtime redone");
        assert_eq!(out.faults.interruptions, 1);
        assert_eq!(out.faults.resubmissions, 1);
        assert!(
            (out.faults.rework_s - 300.0).abs() < 1e-9,
            "aborted attempt"
        );
        assert!(out.faults.downtime_node_s > 0.0);
        assert_eq!(out.report.interruptions, 1);
        assert_eq!(out.report.completed, 1);
    }

    #[test]
    fn checkpoint_restart_preserves_completed_work() {
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(300), FaultAction::NodeFail(NodeId(0)))
            .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 100 });
        let w = Workload::from_jobs(vec![one_node_job(1000, 2000)]);
        let out = faulty_sim(faults).run(&w);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed);
        // 300 s done, 700 s remain + 100 s restore → finishes at 1100.
        assert_eq!(r.finish.unwrap().as_secs(), 1100);
        assert!((out.faults.rework_s - 100.0).abs() < 1e-9, "only overhead");
    }

    #[test]
    fn exhausted_resubmission_budget_fails_terminally() {
        // First failure consumes the (default 1) resubmission; the second
        // interruption is terminal.
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(300), FaultAction::NodeFail(NodeId(0)))
            .with_action(SimTime::from_secs(600), FaultAction::NodeFail(NodeId(1)));
        let w = Workload::from_jobs(vec![one_node_job(1000, 2000)]);
        let out = faulty_sim(faults).run(&w);
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Failed);
        assert_eq!(r.start.unwrap().as_secs(), 300);
        assert_eq!(r.finish.unwrap().as_secs(), 600);
        assert_eq!(out.faults.interruptions, 2);
        assert_eq!(out.faults.resubmissions, 1);
        assert_eq!(out.report.failed, 1);
        assert_eq!(out.report.completed, 0);
    }

    #[test]
    fn drain_window_interrupts_then_returns_capacity() {
        // All four nodes busy; draining node 2 interrupts its job, which
        // must wait (queue) until... node 2 is still draining, but another
        // job finishes first — capacity returns via normal finishes.
        let mk = |id: u64| {
            JobBuilder::new(id)
                .nodes(1)
                .runtime_secs(1000, 2000)
                .mem_per_node(GIB)
                .build()
        };
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(100), FaultAction::DrainStart(NodeId(2)))
            .with_action(SimTime::from_secs(5000), FaultAction::DrainEnd(NodeId(2)));
        let w = Workload::from_jobs(vec![mk(1), mk(2), mk(3), mk(4)]);
        let sched = SchedulerBuilder::new().build();
        let out = Simulation::new(SimConfig::new(machine(PoolTopology::None), sched).checked())
            .unwrap()
            .with_fault_spec(faults)
            .unwrap()
            .run(&w);
        assert_eq!(out.report.completed, 4, "drained job reruns elsewhere");
        assert_eq!(out.faults.interruptions, 1);
        // Availability-weighted utilization exceeds the raw one: the
        // denominator excludes the drained node-seconds.
        assert!(out.faults.avail_util > out.report.node_util);
        assert_eq!(out.report.avail_util, out.faults.avail_util);
    }

    #[test]
    fn pool_degradation_evicts_borrowers_deterministically() {
        // Borrower holds 300 GiB of a 512 GiB pool; degrading to 0.5
        // leaves 256 GiB effective < 300 held → the borrower is evicted.
        let pool = PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        };
        let job = JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(1000, 4000)
            .mem_per_node(556 * GIB) // 256 local + 300 remote
            .intensity(0.5)
            .build();
        let faults = crate::FaultSpec::none()
            .with_action(
                SimTime::from_secs(200),
                FaultAction::PoolDegrade {
                    pool: PoolId(0),
                    factor: 0.5,
                },
            )
            .with_action(SimTime::from_secs(900), FaultAction::PoolRepair(PoolId(0)));
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolFirstFit)
            .slowdown(SlowdownModel::Linear { penalty: 1.5 })
            .build();
        let out = Simulation::new(SimConfig::new(machine(pool), sched).checked())
            .unwrap()
            .with_fault_spec(faults)
            .unwrap()
            .run(&w_of(job));
        assert_eq!(out.faults.interruptions, 1, "borrower evicted");
        assert_eq!(out.report.completed, 1, "restarts (inflated or later)");
    }

    fn w_of(job: Job) -> Workload {
        Workload::from_jobs(vec![job])
    }

    #[test]
    fn permanently_lost_capacity_fails_queued_jobs_instead_of_wedging() {
        // 4-node machine, job needs all 4, node 0 fails for good before
        // it can start; backfill=None has no rejection path, so the
        // fault-aware drain handling must fail it terminally.
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(5), FaultAction::NodeFail(NodeId(0)));
        let job = JobBuilder::new(1)
            .arrival_secs(10)
            .nodes(4)
            .runtime_secs(100, 200)
            .mem_per_node(GIB)
            .build();
        let sched = SchedulerBuilder::new()
            .backfill(dmhpc_sched::BackfillPolicy::None)
            .build();
        let out = Simulation::new(SimConfig::new(machine(PoolTopology::None), sched).checked())
            .unwrap()
            .with_fault_spec(faults)
            .unwrap()
            .run(&w_of(job));
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Failed);
        assert!(r.start.is_none(), "never ran");
        assert_eq!(out.report.failed, 1);
    }

    #[test]
    fn trailing_fault_events_do_not_stretch_the_metrics_window() {
        // A repair scheduled long after the only job finishes must not
        // inflate makespan or dilute utilization: metrics clamp to the
        // last job-affecting event.
        let w = Workload::from_jobs(vec![one_node_job(1000, 2000)]);
        let clean = faulty_sim(crate::FaultSpec::none()).run(&w);
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(300), FaultAction::NodeFail(NodeId(3)))
            .with_action(
                SimTime::from_secs(50_000),
                FaultAction::NodeRepair(NodeId(3)),
            );
        let out = faulty_sim(faults).run(&w);
        // Node 3 is idle; the job (on node 0) is untouched.
        assert_eq!(out.faults.interruptions, 0);
        assert_eq!(out.report.completed, 1);
        assert_eq!(
            out.report.makespan_h, clean.report.makespan_h,
            "trailing repair must not stretch makespan"
        );
        assert_eq!(out.report.node_util, clean.report.node_util);
        // The outage (t=300..1000 within the window) shrinks the
        // availability denominator: avail_util strictly above node_util.
        assert!(out.report.avail_util > out.report.node_util);
        // end_time still reports the true last event, for event-level
        // accounting.
        assert_eq!(out.end_time.as_secs(), 50_000);
    }

    #[test]
    fn generated_outage_windows_never_overlap_per_target() {
        let mut gen = FaultGenerator::quiet(5, 200_000);
        gen.node_mtbf_s = 300; // brutal: many failures per node
        gen.node_repair_s = 5_000;
        let spec = crate::FaultSpec::none().with_generator(gen);
        let cluster = machine(PoolTopology::None);
        let events = spec.materialize(&cluster);
        let mut down_until = std::collections::BTreeMap::new();
        for (t, action) in &events {
            match action {
                FaultAction::NodeFail(n) => {
                    let until = down_until.get(n).copied().unwrap_or(SimTime::ZERO);
                    assert!(*t >= until, "failure of {n} inside its down window");
                    down_until.insert(*n, *t + SimDuration::from_secs(5_000));
                }
                FaultAction::NodeRepair(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(!down_until.is_empty(), "storm generated failures");
    }

    #[test]
    fn transient_outage_delays_full_machine_jobs_instead_of_rejecting() {
        // Node 0 drains at t=5 and returns at t=5000; a 4-node job
        // arrives at t=10. The availability profile cannot see the
        // pending drain-end, so pre-fix EASY rejected the job as "never
        // fits"; it must instead wait and start once capacity returns.
        let faults = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(5), FaultAction::DrainStart(NodeId(0)))
            .with_action(SimTime::from_secs(5000), FaultAction::DrainEnd(NodeId(0)));
        let job = JobBuilder::new(1)
            .arrival_secs(10)
            .nodes(4)
            .runtime_secs(100, 200)
            .mem_per_node(GIB)
            .build();
        let out = faulty_sim(faults).run(&w_of(job));
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed, "waits, not rejected");
        assert_eq!(r.start.unwrap().as_secs(), 5000, "starts at drain end");
        assert_eq!(out.report.rejected, 0);
        assert_eq!(out.report.failed, 0);

        // Permanent loss (no drain-end) still fails it terminally via the
        // drained-events branch — under EASY too, not just backfill=None.
        let permanent = crate::FaultSpec::none()
            .with_action(SimTime::from_secs(5), FaultAction::DrainStart(NodeId(0)));
        let job = JobBuilder::new(1)
            .arrival_secs(10)
            .nodes(4)
            .runtime_secs(100, 200)
            .mem_per_node(GIB)
            .build();
        let out = faulty_sim(permanent).run(&w_of(job));
        assert_eq!(out.records[0].outcome, JobOutcome::Failed);
        assert!(out.records[0].start.is_none());
    }

    #[test]
    fn explicit_none_fault_spec_is_bit_identical() {
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(200);
        let w = spec.generate(13);
        let cluster = ClusterSpec::new(
            2,
            16,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let cfg = SimConfig::new(cluster, sched);
        let plain = Simulation::new(cfg).unwrap().run(&w);
        let with_none = Simulation::new(cfg)
            .unwrap()
            .with_fault_spec(crate::FaultSpec::none())
            .unwrap()
            .run(&w);
        // A quiet generator is also "none".
        let with_quiet = Simulation::new(cfg)
            .unwrap()
            .with_fault_spec(
                crate::FaultSpec::none().with_generator(FaultGenerator::quiet(7, 100_000)),
            )
            .unwrap()
            .run(&w);
        for other in [&with_none, &with_quiet] {
            assert_eq!(plain.trace_hash, other.trace_hash);
            assert_eq!(plain.passes, other.passes);
            assert_eq!(plain.events_processed, other.events_processed);
            assert_eq!(plain.report.mean_wait_s, other.report.mean_wait_s);
            assert_eq!(plain.report.avail_util, other.report.avail_util);
        }
        let expected = FaultSummary {
            avail_util: plain.report.node_util,
            ..Default::default()
        };
        assert_eq!(plain.faults, expected);
        assert_eq!(
            plain.report.avail_util, plain.report.node_util,
            "no downtime ⇒ identical expression"
        );
    }

    #[test]
    fn fault_scenarios_are_deterministic_across_backends() {
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(250);
        let w = spec.generate(3);
        let cluster = ClusterSpec::new(
            2,
            16,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        );
        let mut gen = FaultGenerator::quiet(11, 400_000);
        gen.node_mtbf_s = 40_000;
        gen.node_repair_s = 10_000;
        gen.drain_interval_s = 150_000;
        gen.drain_duration_s = 20_000;
        gen.pool_degrade_interval_s = 200_000;
        gen.pool_degrade_factor = 0.5;
        let faults = crate::FaultSpec::none()
            .with_generator(gen)
            .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 60 })
            .with_max_resubmits(2);
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let cfg = SimConfig::new(cluster, sched).checked();
        let run = |kind: EventQueueKind| {
            Simulation::new(cfg.with_event_queue(kind))
                .unwrap()
                .with_fault_spec(faults.clone())
                .unwrap()
                .run(&w)
        };
        let heap_a = run(EventQueueKind::BinaryHeap);
        let heap_b = run(EventQueueKind::BinaryHeap);
        let cal = run(EventQueueKind::Calendar);
        assert_eq!(heap_a.trace_hash, heap_b.trace_hash, "repeatable");
        assert_eq!(heap_a.trace_hash, cal.trace_hash, "backend-independent");
        assert_eq!(heap_a.faults, cal.faults);
        assert_eq!(heap_a.passes, cal.passes);
        assert!(heap_a.faults.interruptions > 0, "scenario actually bites");
    }

    #[test]
    fn calendar_backend_reproduces_heap_traces() {
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(300);
        let w = spec.generate(42);
        let cluster = ClusterSpec::new(
            4,
            32,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 512 * GIB,
            },
        );
        // Cover both a static and the dynamic (re-dilating) model.
        for slowdown in [
            SlowdownModel::Saturating {
                penalty: 1.5,
                curvature: 3.0,
            },
            SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            },
        ] {
            let sched = SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolBestFit)
                .slowdown(slowdown)
                .build();
            let cfg = SimConfig::new(cluster, sched);
            let heap = Simulation::new(cfg).unwrap().run(&w);
            let cal = Simulation::new(cfg.with_event_queue(crate::EventQueueKind::Calendar))
                .unwrap()
                .run(&w);
            assert_eq!(heap.trace_hash, cal.trace_hash, "{slowdown:?}");
            assert_eq!(heap.passes, cal.passes);
            assert_eq!(heap.events_processed, cal.events_processed);
            assert_eq!(heap.report.mean_wait_s, cal.report.mean_wait_s);
        }
    }

    #[test]
    fn observers_are_trace_neutral_and_see_every_event() {
        use crate::observe::EventCounter;
        let spec = dmhpc_workload::SystemPreset::HighThroughput.synthetic_spec(200);
        let w = spec.generate(5);
        let cluster = ClusterSpec::new(
            2,
            16,
            NodeSpec::new(32, 192 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 384 * GIB,
            },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Linear { penalty: 1.5 })
            .build();
        let cfg = SimConfig::new(cluster, sched);
        let plain = Simulation::new(cfg).unwrap().run(&w);
        let mut counter = EventCounter::new();
        let mut probe = crate::observe::SampledSeriesProbe::new(SimDuration::from_secs(3600));
        let observed = Simulation::new(cfg)
            .unwrap()
            .run_with(&w, ObserverSet::new().watch(&mut counter).watch(&mut probe));
        assert_eq!(
            plain.trace_hash, observed.trace_hash,
            "observers are neutral"
        );
        assert_eq!(plain.report.mean_wait_s, observed.report.mean_wait_s);
        assert_eq!(plain.passes, observed.passes);
        // Every job submits once; every submit eventually starts, rejects,
        // or fails; every start grabs and releases exactly once.
        assert_eq!(counter.count("submit"), 200);
        assert_eq!(counter.count("grab"), counter.count("start"));
        assert_eq!(counter.count("release"), counter.count("grab"));
        assert_eq!(
            counter.count("submit"),
            counter.count("start") + counter.count("reject") + counter.count("fail")
        );
        assert_eq!(counter.count("pass"), plain.passes);
        assert!(!probe.samples().is_empty(), "probe sampled the run");
        let last = probe.samples().last().unwrap();
        assert_eq!(last.running, 0, "machine drained by the window end");
        assert_eq!(last.queued, 0);
    }

    #[test]
    fn contention_redilation_is_pool_scoped() {
        // Two racks with separate pools. Job 9 fills rack 0 and borrows
        // from its pool; jobs 1-4 churn rack 1's pool. Pool domains are
        // independent, so rack-1 churn must not perturb job 9's trajectory:
        // its record is identical whether or not the churn jobs exist.
        let pool = PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        };
        let cluster = ClusterSpec::new(2, 4, NodeSpec::new(64, 256 * GIB), pool);
        let model = SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        };
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(model)
            .build();
        let anchor = JobBuilder::new(9)
            .arrival_secs(0)
            .nodes(4)
            .runtime_secs(3000, 9000)
            .mem_per_node(300 * GIB)
            .intensity(1.0)
            .build();
        let churn: Vec<Job> = (1..=4)
            .map(|id| {
                JobBuilder::new(id)
                    .arrival_secs(id * 50)
                    .nodes(1)
                    .runtime_secs(500, 2000)
                    .mem_per_node(300 * GIB)
                    .intensity(1.0)
                    .build()
            })
            .collect();

        let sim = |jobs: Vec<Job>| {
            Simulation::new(SimConfig::new(cluster, sched).checked())
                .unwrap()
                .run(&Workload::from_jobs(jobs))
        };
        let alone = sim(vec![anchor.clone()]);
        let mut with_churn_jobs = vec![anchor];
        with_churn_jobs.extend(churn);
        let with_churn = sim(with_churn_jobs);

        assert_eq!(with_churn.report.completed, 5);
        let solo = |out: &SimOutput| {
            out.records
                .iter()
                .find(|r| r.job.id.0 == 9)
                .cloned()
                .unwrap()
        };
        let (a, b) = (solo(&alone), solo(&with_churn));
        assert_eq!(a.finish, b.finish, "rack-1 churn leaked into rack 0");
        assert_eq!(a.dilation_actual, b.dilation_actual);
        // The rack-1 borrowers do contend with each other.
        let churned = with_churn
            .records
            .iter()
            .filter(|r| r.job.id.0 <= 4)
            .any(|r| (r.dilation_actual - r.dilation_planned).abs() > 1e-9);
        assert!(churned, "co-located borrowers should re-dilate");
    }

    // ------------------------------------------------- open-system service

    fn preset_machine() -> ClusterSpec {
        let (racks, npr, cores, mem) = dmhpc_workload::SystemPreset::HighThroughput.machine();
        ClusterSpec::new(racks, npr, NodeSpec::new(cores, mem), PoolTopology::None)
    }

    fn service_sim(svc: ServiceSpec) -> Simulation {
        let cfg = SimConfig::new(preset_machine(), SchedulerBuilder::new().build());
        Simulation::new(cfg)
            .unwrap()
            .with_service_spec(svc)
            .unwrap()
    }

    fn no_jobs() -> Workload {
        Workload::from_jobs(Vec::new())
    }

    #[test]
    fn open_system_run_streams_jobs_and_reports_the_service_summary() {
        let svc = ServiceSpec::open(dmhpc_workload::SystemPreset::HighThroughput)
            .with_utilization(0.7)
            .with_horizon_jobs(2000)
            .with_warmup_secs(3600)
            .with_slo_wait_secs(3600.0);
        let out = service_sim(svc).run(&no_jobs());
        let svc_out = out.service.expect("open runs carry a service summary");
        assert_eq!(svc_out.observed + svc_out.warmup_skipped, 2000);
        assert!(svc_out.observed > 0, "measurement window saw jobs");
        assert!(out.records.is_empty(), "no per-job records in service mode");
        assert_eq!(
            (out.report.completed + out.report.killed + out.report.rejected + out.report.failed)
                as u64,
            svc_out.observed,
            "every in-window job lands in exactly one outcome bucket"
        );
        assert_eq!(svc_out.slo_wait_s, Some(3600.0));
        assert!((0.0..=1.0).contains(&svc_out.slo_attained.expect("target configured")));
        assert!(out.report.node_util > 0.0 && out.report.node_util <= 1.0);
        assert!(out.report.makespan_h > 0.0);
    }

    #[test]
    fn open_system_runs_replay_identically_on_both_queue_backends() {
        let svc = ServiceSpec::open(dmhpc_workload::SystemPreset::HighThroughput)
            .with_utilization(0.8)
            .with_horizon_jobs(800)
            .with_seed(13);
        let a = service_sim(svc.clone()).run(&no_jobs());
        let b = service_sim(svc.clone()).run(&no_jobs());
        assert_eq!(a.trace_hash, b.trace_hash, "pure function of the spec");
        let cfg = SimConfig::new(preset_machine(), SchedulerBuilder::new().build())
            .with_event_queue(crate::EventQueueKind::Calendar);
        let c = Simulation::new(cfg)
            .unwrap()
            .with_service_spec(svc)
            .unwrap()
            .run(&no_jobs());
        assert_eq!(a.trace_hash, c.trace_hash, "backend is invisible");
        assert_eq!(a.events_processed, c.events_processed);
        assert_eq!(a.service, c.service);
    }

    #[test]
    fn service_and_fault_scenarios_do_not_combine() {
        let svc = ServiceSpec::open(dmhpc_workload::SystemPreset::HighThroughput)
            .with_utilization(0.8)
            .with_horizon_jobs(100);
        let mut gen = crate::faults::FaultGenerator::quiet(5, 40_000);
        gen.node_mtbf_s = 8_000;
        let faults = crate::faults::FaultSpec::none().with_generator(gen);
        let cfg = SimConfig::new(preset_machine(), SchedulerBuilder::new().build());
        let err = Simulation::new(cfg)
            .unwrap()
            .with_fault_spec(faults.clone())
            .unwrap()
            .with_service_spec(svc.clone())
            .unwrap_err();
        assert!(err.to_string().contains("do not combine"), "{err}");
        let err = Simulation::new(cfg)
            .unwrap()
            .with_service_spec(svc)
            .unwrap()
            .with_fault_spec(faults)
            .unwrap_err();
        assert!(err.to_string().contains("do not combine"), "{err}");
    }

    /// Mirrors the sketch's wait inputs exactly: every record that ran
    /// (finished, killed, or failed-after-start) contributes its wait.
    struct WaitCapture {
        waits: Vec<f64>,
    }

    impl crate::observe::Observer for WaitCapture {
        fn on_event(&mut self, ev: &SimEvent) {
            let record = match ev {
                SimEvent::JobFinished { record, .. } => record,
                SimEvent::JobFailed { record, .. } => record,
                _ => return,
            };
            if let Some(w) = record.wait() {
                self.waits.push(w.as_secs_f64());
            }
        }
    }

    #[test]
    fn sketch_quantiles_track_exact_wait_quantiles() {
        // A heavily loaded open system builds a real wait distribution;
        // the streaming P² estimates must track the exact sorted
        // quantiles within the documented bounds: ≤10% at p50, ≤5% at
        // p95, ≤10% at p99 (queue waits are strongly autocorrelated, and
        // an online estimator lags a drifting median more than the
        // tails — observed errors here are 2.4% / 0.5% / 0.3%).
        let svc = ServiceSpec::open(dmhpc_workload::SystemPreset::HighThroughput)
            .with_utilization(0.9)
            .with_horizon_jobs(8000);
        let mut cap = WaitCapture { waits: Vec::new() };
        let out = service_sim(svc).run_with(&no_jobs(), ObserverSet::new().watch(&mut cap));
        assert!(cap.waits.len() > 1000, "saturation produced waits");
        cap.waits.sort_by(f64::total_cmp);
        let exact = |q: f64| cap.waits[((cap.waits.len() - 1) as f64 * q).round() as usize];
        let close = |got: f64, want: f64, tol: f64| (got - want).abs() <= tol * want.abs().max(1.0);
        let p99 = out.service.unwrap().p99_wait_s;
        assert!(
            close(out.report.p50_wait_s, exact(0.50), 0.10),
            "p50 {} vs exact {}",
            out.report.p50_wait_s,
            exact(0.50)
        );
        assert!(
            close(out.report.p95_wait_s, exact(0.95), 0.05),
            "p95 {} vs exact {}",
            out.report.p95_wait_s,
            exact(0.95)
        );
        assert!(
            close(p99, exact(0.99), 0.10),
            "p99 {} vs exact {}",
            p99,
            exact(0.99)
        );
    }

    /// The acceptance-scale run: ten million jobs streamed through the
    /// engine with O(1)-memory metrics. No record vector, no series
    /// points — the only job-count-proportional state anywhere is the
    /// queue of currently waiting jobs. Run with `--ignored` (takes a few
    /// minutes).
    #[test]
    #[ignore = "acceptance-scale run, minutes of wall clock"]
    fn ten_million_job_open_run_completes_with_bounded_memory() {
        let svc = ServiceSpec::open(dmhpc_workload::SystemPreset::HighThroughput)
            .with_utilization(0.7)
            .with_horizon_jobs(10_000_000)
            .with_warmup_secs(24 * 3600);
        let out = service_sim(svc).run(&no_jobs());
        let svc_out = out.service.unwrap();
        assert_eq!(svc_out.observed + svc_out.warmup_skipped, 10_000_000);
        assert!(out.records.is_empty());
        // The series bundle is the origin placeholder: one initial zero
        // point per series (recorded at construction), no per-event
        // breakpoints from ten million jobs.
        assert_eq!(out.series.nodes_busy.points().len(), 1);
        assert_eq!(out.series.queue_depth.points().len(), 1);
    }

    /// Records `(kind, at_secs)` for defer/preempt/reject events so tests
    /// can pin not just that an admission decision happened, but *when*.
    struct AdmissionCapture {
        seen: Vec<(&'static str, u64)>,
    }

    impl Observer for AdmissionCapture {
        fn on_event(&mut self, ev: &SimEvent) {
            match ev {
                SimEvent::JobDeferred { .. }
                | SimEvent::JobPreempted { .. }
                | SimEvent::JobRejected { .. } => {
                    self.seen.push((ev.kind(), ev.at().as_secs()));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn defer_keeps_transiently_infeasible_job_alive() {
        // The job needs a pool borrow in *both* racks (total memory
        // exceeds any all-local spread, and one rack's pool cannot carry
        // two borrows), and one pool is degraded at arrival: under
        // `DeferUntilFeasible` it must defer — not terminally fail — and
        // start once the pool repairs, well inside its deadline.
        let spec = ClusterSpec::new(
            2,
            2,
            NodeSpec::new(64, 256 * GIB),
            PoolTopology::PerRack {
                mib_per_rack: 512 * GIB,
            },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolFirstFit)
            .slowdown(SlowdownModel::Linear { penalty: 1.6 })
            .admission(dmhpc_sched::AdmissionPolicy::DeferUntilFeasible)
            .build();
        let sim = Simulation::new(SimConfig::new(spec, sched).checked())
            .unwrap()
            .with_fault_spec(
                FaultSpec::none()
                    .with_action(
                        SimTime::from_secs(5),
                        FaultAction::PoolDegrade {
                            pool: dmhpc_platform::PoolId(0),
                            factor: 0.01,
                        },
                    )
                    .with_action(
                        SimTime::from_secs(500),
                        FaultAction::PoolRepair(dmhpc_platform::PoolId(0)),
                    ),
            )
            .unwrap();
        // 2×600 GiB = 1200 GiB total: more than the 1024 GiB of machine
        // DRAM (no all-local spread exists, inflated or not) and more
        // remote than one 512 GiB rack pool serves — the only healthy
        // shape borrows 344 GiB in each rack, so degrading one pool
        // leaves the job transiently unservable.
        let w = Workload::from_jobs(vec![JobBuilder::new(1)
            .arrival_secs(10)
            .nodes(2)
            .runtime_secs(100, 200)
            .mem_per_node(600 * GIB)
            .slo(dmhpc_workload::Slo::Deadline { deadline_s: 2000.0 })
            .build()]);
        let mut cap = AdmissionCapture { seen: Vec::new() };
        let out = sim.run_with(&w, ObserverSet::new().watch(&mut cap));
        assert_eq!(cap.seen, vec![("defer", 10)], "one deferral, no reject");
        let r = &out.records[0];
        assert_eq!(r.outcome, JobOutcome::Completed, "never terminally failed");
        assert_eq!(r.start.unwrap().as_secs(), 500, "starts at pool repair");
    }

    #[test]
    fn defer_rejects_at_the_deadline_wake() {
        // The machine is held by an unstamped job past the stamped job's
        // deadline. Deferral schedules a wake-up at the feasibility lapse,
        // so the rejection lands *at* the deadline — not whenever the next
        // natural event happens to run a pass (t = 1000 here).
        let sched = SchedulerBuilder::new()
            .admission(dmhpc_sched::AdmissionPolicy::DeferUntilFeasible)
            .build();
        let sim =
            Simulation::new(SimConfig::new(machine(PoolTopology::None), sched).checked()).unwrap();
        let w = Workload::from_jobs(vec![
            JobBuilder::new(1)
                .arrival_secs(0)
                .nodes(4)
                .runtime_secs(1000, 1200)
                .mem_per_node(GIB)
                .build(),
            JobBuilder::new(2)
                .arrival_secs(10)
                .nodes(1)
                .runtime_secs(50, 100)
                .mem_per_node(GIB)
                .slo(dmhpc_workload::Slo::Deadline { deadline_s: 100.0 })
                .build(),
        ]);
        let mut cap = AdmissionCapture { seen: Vec::new() };
        let out = sim.run_with(&w, ObserverSet::new().watch(&mut cap));
        assert_eq!(cap.seen, vec![("defer", 10), ("reject", 110)]);
        let by_id = |id: u64| out.records.iter().find(|r| r.job.id.0 == id).unwrap();
        assert_eq!(by_id(2).outcome, JobOutcome::Rejected);
        assert_eq!(by_id(1).outcome, JobOutcome::Completed);
    }

    #[test]
    fn laxity_preemption_rescues_deadline_critical_job() {
        // A deadline-free job holds the whole machine until t = 1000; a
        // stamped job arriving at t = 10 must start by t = 190 to meet its
        // deadline at 310. Without preemption it misses; with
        // `LaxityCheckpoint` the holder is checkpointed, the stamped job
        // starts immediately, and the holder resumes with only the
        // restore overhead as rework.
        let mk_workload = || {
            Workload::from_jobs(vec![
                JobBuilder::new(1)
                    .arrival_secs(0)
                    .nodes(4)
                    .runtime_secs(1000, 1200)
                    .mem_per_node(GIB)
                    .build(),
                JobBuilder::new(2)
                    .arrival_secs(10)
                    .nodes(2)
                    .runtime_secs(100, 120)
                    .mem_per_node(GIB)
                    .slo(dmhpc_workload::Slo::Deadline { deadline_s: 300.0 })
                    .build(),
            ])
        };
        let run = |queue: EventQueueKind| {
            let sched = SchedulerBuilder::new()
                .preempt(dmhpc_sched::PreemptPolicy::LaxityCheckpoint { overhead_s: 50 })
                .build();
            let cfg = SimConfig::new(machine(PoolTopology::None), sched)
                .checked()
                .with_event_queue(queue);
            let mut cap = AdmissionCapture { seen: Vec::new() };
            let out = Simulation::new(cfg)
                .unwrap()
                .run_with(&mk_workload(), ObserverSet::new().watch(&mut cap));
            (out, cap.seen)
        };
        let (out, seen) = run(EventQueueKind::BinaryHeap);
        assert_eq!(seen, vec![("preempt", 10)]);
        assert_eq!(out.preemptions, 1);
        let by_id = |id: u64| out.records.iter().find(|r| r.job.id.0 == id).unwrap();
        let rescued = by_id(2);
        assert_eq!(rescued.start.unwrap().as_secs(), 10, "starts on eviction");
        assert_eq!(rescued.finish.unwrap().as_secs(), 110, "meets deadline 310");
        // The victim resumes once capacity frees: 990 s of surviving work
        // plus the 50 s restore overhead, restarted at t = 110.
        let victim = by_id(1);
        assert_eq!(victim.outcome, JobOutcome::Completed, "never failed");
        assert_eq!(victim.finish.unwrap().as_secs(), 110 + 990 + 50);

        // Identical on both event-queue backends.
        let (cal, cal_seen) = run(EventQueueKind::Calendar);
        assert_eq!(cal.trace_hash, out.trace_hash);
        assert_eq!(cal_seen, seen);

        // Ablation: without preemption the stamped job waits for the
        // natural release at t = 1000 and misses its deadline.
        let plain = local_sim().run(&mk_workload());
        let waited = plain.records.iter().find(|r| r.job.id.0 == 2).unwrap();
        assert_eq!(waited.start.unwrap().as_secs(), 1000, "deadline missed");
    }

    #[test]
    fn admission_and_preempt_are_inert_on_unstamped_workloads() {
        // Admission control and preemption are deadline mechanisms: on a
        // workload without SLO stamps (and no run-wide target), enabling
        // them must leave the run bit-identical to the default config.
        let w = Workload::from_jobs(vec![
            JobBuilder::new(1)
                .arrival_secs(0)
                .nodes(4)
                .runtime_secs(300, 400)
                .mem_per_node(GIB)
                .build(),
            JobBuilder::new(2)
                .arrival_secs(10)
                .nodes(2)
                .runtime_secs(100, 150)
                .mem_per_node(GIB)
                .build(),
            JobBuilder::new(3)
                .arrival_secs(20)
                .nodes(1)
                .runtime_secs(50, 80)
                .mem_per_node(GIB)
                .build(),
        ]);
        let base = local_sim().run(&w);
        let armed = SchedulerBuilder::new()
            .admission(dmhpc_sched::AdmissionPolicy::DeferUntilFeasible)
            .preempt(dmhpc_sched::PreemptPolicy::LaxityCheckpoint { overhead_s: 60 })
            .build();
        let out = Simulation::new(SimConfig::new(machine(PoolTopology::None), armed).checked())
            .unwrap()
            .run(&w);
        assert_eq!(out.trace_hash, base.trace_hash);
        assert_eq!(out.preemptions, 0);
    }

    // ------------------------------------------------------ arrival feed

    /// A tiny in-test [`JobSource`]: a job list streamed in order, with no
    /// size hint (like a duration-bounded service stream).
    struct VecSource(std::vec::IntoIter<Job>);

    impl JobSource for VecSource {
        fn next_job(&mut self) -> Option<Job> {
            self.0.next()
        }

        fn size_hint(&self) -> Option<u64> {
            None
        }
    }

    /// Run `sim` with its arrivals pulled from `source` — the feed an open
    /// service run uses — instead of a workload replay.
    fn run_stream(sim: &Simulation, jobs: Vec<Job>) -> SimOutput {
        Engine::new(
            &sim.cfg,
            &sim.scheduler,
            &sim.faults,
            &sim.service,
            Some(Box::new(VecSource(jobs.into_iter()))),
            &mut [],
            None,
        )
        .finish()
    }

    #[test]
    fn streamed_arrivals_tie_with_finishes_like_closed_arrivals() {
        // One node, 10 s jobs every 5 s: job i finishes on the very
        // microsecond job i + 2 arrives. The arrival must be admitted
        // before the finish pops, exactly as in the closed run.
        let jobs: Vec<Job> = (0..5)
            .map(|i| {
                JobBuilder::new(i + 1)
                    .arrival_secs(5 * i)
                    .nodes(1)
                    .runtime_secs(10, 20)
                    .mem_per_node(GIB)
                    .build()
            })
            .collect();
        let one_node = ClusterSpec::new(1, 1, NodeSpec::new(64, 256 * GIB), PoolTopology::None);
        let sim =
            Simulation::new(SimConfig::new(one_node, SchedulerBuilder::new().build()).checked())
                .unwrap();
        let closed = sim.run(&Workload::from_jobs(jobs.clone()));
        let streamed = run_stream(&sim, jobs);
        assert_eq!(streamed.trace_hash, closed.trace_hash);
        assert_eq!(streamed.events_processed, closed.events_processed);
        assert_eq!(closed.events_processed, 10, "5 arrivals + 5 finishes");
    }

    /// A whole-second random job over a short horizon, so arrivals and
    /// finishes collide often (same shape as `random_job` in
    /// `tests/property.rs`, compressed in time).
    fn whole_second_job(rng: &mut dmhpc_des::rng::Pcg64, id: u64) -> Job {
        let runtime = 1 + rng.bounded_u64(120);
        Job {
            id: JobId(id),
            user: (id % 7) as u32,
            arrival: SimTime::from_secs(rng.bounded_u64(600)),
            nodes: 1 + rng.index(4) as u32,
            walltime: SimDuration::from_secs(runtime * (1 + rng.bounded_u64(3))),
            runtime: SimDuration::from_secs(runtime),
            mem_per_node: 256 + rng.bounded_u64(400 * GIB),
            intensity: rng.next_f64(),
            slo: None,
        }
    }

    #[test]
    fn closed_streamed_and_one_site_fleet_runs_agree() {
        use crate::federation::{FleetSimulation, FleetSpec};
        let pool = PoolTopology::PerRack {
            mib_per_rack: 512 * GIB,
        };
        for case in 0..100u64 {
            let mut rng = dmhpc_des::rng::Pcg64::new_stream(0xFEED, case);
            let n = 1 + rng.index(40);
            let jobs: Vec<Job> = (0..n)
                .map(|i| whole_second_job(&mut rng, i as u64))
                .collect();
            let w = Workload::from_jobs(jobs);
            let sched = SchedulerBuilder::new()
                .memory([MemoryPolicy::LocalOnly, MemoryPolicy::PoolBestFit][rng.index(2)])
                .backfill(
                    [
                        dmhpc_sched::BackfillPolicy::Easy,
                        dmhpc_sched::BackfillPolicy::Conservative,
                    ][rng.index(2)],
                )
                .slowdown(SlowdownModel::Contention {
                    penalty: 1.5,
                    gamma: 1.0,
                })
                .build();
            for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
                let cfg = SimConfig::new(machine(pool), sched).with_event_queue(kind);
                let sim = Simulation::new(cfg).unwrap();
                let closed = sim.run(&w);
                let streamed = run_stream(&sim, w.jobs().to_vec());
                let fleet = FleetSimulation::new(
                    &FleetSpec::symmetric(1, 300.0, dmhpc_sched::MetaPolicyKind::RoundRobin),
                    cfg,
                )
                .unwrap()
                .run(&w);
                let expect = (closed.trace_hash, closed.events_processed, closed.passes);
                for (name, out) in [("streamed", &streamed), ("fleet", &fleet.site_outputs[0])] {
                    assert_eq!(
                        (out.trace_hash, out.events_processed, out.passes),
                        expect,
                        "case {case}: {name} run on {}",
                        kind.name()
                    );
                }
            }
        }
    }
}
