//! Outside-in tracing: timing wrappers around the built-in policies and a
//! timing observer, with no counters inside the simulator.
//!
//! A traced run builds its simulator through `Simulation::with_policies`
//! with a [`TimedOrdering`] around the configured `OrderPolicy` and a
//! [`TimedPlacement`] around the configured `MemoryPolicy`, and watches it
//! with a [`PassObserver`]. Every pass of the scheduler calls
//! `Ordering::order` exactly once, first, and the engine emits
//! `SimEvent::PassCompleted` when the pass is done, so a pass span runs
//! from the `order` entry to that event. Inside it the wrappers record:
//!
//! * `order` — the ordering call itself;
//! * `profile_build` — a shadow build of `AvailabilityProfile::from_cluster`
//!   over the pass's own `ctx.cluster` and `ctx.releases` (copied to a
//!   `Vec<Release>`, as the pass does). The shadow is extra work, so it is
//!   its own child span; its time estimates the real build the pass does
//!   later, which sits in the pass's self time;
//! * `plan`, `nominal_shape`, `best_dilation` — one span per pass and kind,
//!   covering the first to the last call, with the call count and the
//!   summed call time (`busy_ns`).
//!
//! The wrappers delegate every decision unchanged, so a traced run must
//! reproduce the untraced run's trace hash; the benchmark checks that.
//! Accumulators are atomics (`Ordering`/`Placement` are `Send + Sync`);
//! `Relaxed` suffices because each value is a statistic read on the same
//! thread that wrote it. Spans stay in memory and are written out at the
//! end of the run.

use dmhpc_sched::{
    AvailabilityProfile, Demand, MemoryPolicy, OrderPolicy, Ordering, PassDirective, Placement,
    PlannedAllocation, QueuedJob, Release, SchedContext,
};
use dmhpc_sim::observe::{Observer, RunContext, RunEnd, SimEvent, TraceSink};
use dmhpc_sim::SimError;
use dmhpc_workload::Job;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One timed interval of a traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (`None` for the run span).
    pub parent: Option<usize>,
    /// Calls folded into the span (1 for a single interval).
    pub calls: u64,
    /// Time the calls themselves took; `end_ns - start_ns` for a single
    /// interval, less for a group of calls with gaps between them.
    pub busy_ns: u64,
    /// Items the span processed: queue entries for `order`, releases for
    /// `profile_build`, calls that returned `Some` for the policy-hook
    /// groups; 0 otherwise.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Calls of one policy hook within the current pass.
#[derive(Debug, Default)]
struct CallGroup {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    hits: AtomicU64,
    first_ns: AtomicU64,
    last_ns: AtomicU64,
}

impl CallGroup {
    fn record(&self, start: u64, end: u64, hit: bool) {
        if self.calls.fetch_add(1, Relaxed) == 0 {
            self.first_ns.store(start, Relaxed);
        }
        self.busy_ns.fetch_add(end - start, Relaxed);
        self.last_ns.store(end, Relaxed);
        if hit {
            self.hits.fetch_add(1, Relaxed);
        }
    }

    fn reset(&self) {
        self.calls.store(0, Relaxed);
        self.busy_ns.store(0, Relaxed);
        self.hits.store(0, Relaxed);
    }

    fn span(&self, name: &'static str, parent: usize) -> Option<Span> {
        let calls = self.calls.load(Relaxed);
        (calls > 0).then(|| Span {
            name,
            start_ns: self.first_ns.load(Relaxed),
            end_ns: self.last_ns.load(Relaxed),
            parent: Some(parent),
            calls,
            busy_ns: self.busy_ns.load(Relaxed),
            items: self.hits.load(Relaxed),
        })
    }
}

/// A single interval recorded by a wrapper.
#[derive(Debug, Default)]
struct Interval {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    items: AtomicU64,
}

impl Interval {
    fn set(&self, start: u64, end: u64, items: u64) {
        self.start_ns.store(start, Relaxed);
        self.end_ns.store(end, Relaxed);
        self.items.store(items, Relaxed);
    }

    fn span(&self, name: &'static str, parent: usize) -> Span {
        let (start_ns, end_ns) = (self.start_ns.load(Relaxed), self.end_ns.load(Relaxed));
        Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            calls: 1,
            busy_ns: end_ns.saturating_sub(start_ns),
            items: self.items.load(Relaxed),
        }
    }
}

/// Shared state of one traced run: the clock and the open pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pass_start_ns: AtomicU64,
    order: Interval,
    profile: Interval,
    plan: CallGroup,
    nominal: CallGroup,
    best: CallGroup,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            pass_start_ns: AtomicU64::new(0),
            order: Interval::default(),
            profile: Interval::default(),
            plan: CallGroup::default(),
            nominal: CallGroup::default(),
            best: CallGroup::default(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A pass begins: forget the previous pass's accumulators.
    fn open_pass(&self, at: u64) {
        self.pass_start_ns.store(at, Relaxed);
        self.plan.reset();
        self.nominal.reset();
        self.best.reset();
    }

    /// Close the open pass at `end`, appending its span and children.
    fn close_pass(&self, end: u64, spans: &mut Vec<Span>) {
        let idx = spans.len();
        spans.push(Span {
            name: "pass",
            start_ns: self.pass_start_ns.load(Relaxed),
            end_ns: end,
            parent: Some(0),
            calls: 1,
            busy_ns: end.saturating_sub(self.pass_start_ns.load(Relaxed)),
            items: 0,
        });
        spans.push(self.profile.span("profile_build", idx));
        spans.push(self.order.span("order", idx));
        spans.extend(self.plan.span("plan", idx));
        spans.extend(self.nominal.span("nominal_shape", idx));
        spans.extend(self.best.span("best_dilation", idx));
    }
}

/// [`Ordering`] wrapper: opens the pass span, shadow-times the profile
/// build, and times the wrapped ordering.
#[derive(Debug)]
pub struct TimedOrdering {
    pub inner: OrderPolicy,
    pub tracer: Arc<Tracer>,
}

impl Ordering for TimedOrdering {
    fn name(&self) -> &str {
        Ordering::name(&self.inner)
    }

    fn order(&self, entries: &mut [QueuedJob], ctx: &SchedContext<'_>) {
        let t = &self.tracer;
        let pass_start = t.now_ns();
        t.open_pass(pass_start);
        let releases: Vec<Release> = ctx
            .releases
            .iter()
            .map(|r| Release {
                time: r.planned_end,
                nodes_per_rack: r.nodes_per_rack.clone(),
                pool_per_domain: r.pool_per_domain.clone(),
            })
            .collect();
        std::hint::black_box(AvailabilityProfile::from_cluster(
            ctx.now,
            ctx.cluster,
            &releases,
        ));
        let order_start = t.now_ns();
        t.profile
            .set(pass_start, order_start, releases.len() as u64);
        Ordering::order(&self.inner, entries, ctx);
        t.order.set(order_start, t.now_ns(), entries.len() as u64);
    }

    fn directive(&self, entries: &[QueuedJob], ctx: &SchedContext<'_>) -> PassDirective {
        Ordering::directive(&self.inner, entries, ctx)
    }
}

/// [`Placement`] wrapper timing every hook call.
#[derive(Debug)]
pub struct TimedPlacement {
    pub inner: MemoryPolicy,
    pub tracer: Arc<Tracer>,
}

impl Placement for TimedPlacement {
    fn name(&self) -> &str {
        Placement::name(&self.inner)
    }

    fn nominal_shape(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<(Demand, f64)> {
        let start = self.tracer.now_ns();
        let out = Placement::nominal_shape(&self.inner, job, ctx);
        self.tracer
            .nominal
            .record(start, self.tracer.now_ns(), out.is_some());
        out
    }

    fn plan(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<PlannedAllocation> {
        let start = self.tracer.now_ns();
        let out = Placement::plan(&self.inner, job, ctx);
        self.tracer
            .plan
            .record(start, self.tracer.now_ns(), out.is_some());
        out
    }

    fn best_dilation(&self, job: &Job, ctx: &SchedContext<'_>) -> Option<f64> {
        let start = self.tracer.now_ns();
        let out = Placement::best_dilation(&self.inner, job, ctx);
        self.tracer
            .best
            .record(start, self.tracer.now_ns(), out.is_some());
        out
    }
}

/// Closes pass spans on `PassCompleted` and brackets the run span.
#[derive(Debug)]
pub struct PassObserver {
    tracer: Arc<Tracer>,
    pub spans: Vec<Span>,
}

impl PassObserver {
    pub fn new(tracer: Arc<Tracer>) -> Self {
        PassObserver {
            tracer,
            spans: Vec::new(),
        }
    }
}

impl Observer for PassObserver {
    fn on_run_start(&mut self, _ctx: &RunContext) {
        let now = self.tracer.now_ns();
        self.spans.clear();
        self.spans.push(Span {
            name: "run",
            start_ns: now,
            end_ns: now,
            parent: None,
            calls: 1,
            busy_ns: 0,
            items: 0,
        });
    }

    fn on_event(&mut self, ev: &SimEvent) {
        if let SimEvent::PassCompleted { .. } = ev {
            let now = self.tracer.now_ns();
            self.tracer.close_pass(now, &mut self.spans);
        }
    }

    fn on_run_end(&mut self, _end: &RunEnd) {
        let now = self.tracer.now_ns();
        if let Some(run) = self.spans.first_mut() {
            run.end_ns = now;
            run.busy_ns = now.saturating_sub(run.start_ns);
        }
    }
}

/// Self time of every span: its duration minus its children's call time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.busy_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `calls`, `busy_ns`, `items`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"calls\":{},\"busy_ns\":{},\"items\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.calls, s.busy_ns, s.items
        )?;
    }
    out.flush()
}

/// A [`TraceSink`] whose event handling is timed.
#[derive(Debug)]
pub struct TimedSink {
    pub sink: TraceSink,
    pub busy_ns: u64,
    pub events: u64,
}

impl TimedSink {
    pub fn create(path: &Path) -> Result<Self, SimError> {
        Ok(TimedSink {
            sink: TraceSink::create(path)?,
            busy_ns: 0,
            events: 0,
        })
    }
}

impl Observer for TimedSink {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.sink.on_run_start(ctx);
    }

    fn on_event(&mut self, ev: &SimEvent) {
        let start = Instant::now();
        self.sink.on_event(ev);
        self.busy_ns += start.elapsed().as_nanos() as u64;
        self.events += 1;
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        let start = Instant::now();
        self.sink.on_run_end(end);
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }

    fn failure(&self) -> Option<SimError> {
        self.sink.failure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, busy: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            calls: 1,
            busy_ns: busy,
            items: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_call_time() {
        let spans = vec![
            span("run", 0, 100, None, 100),
            span("pass", 10, 60, Some(0), 50),
            span("order", 10, 15, Some(1), 5),
            // A call group spanning 20..50 whose calls took 12 ns.
            span("plan", 20, 50, Some(1), 12),
        ];
        assert_eq!(self_times(&spans), vec![50, 33, 5, 30]);
    }
}
