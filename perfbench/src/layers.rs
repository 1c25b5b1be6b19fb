//! The traced run: per-layer metrics from outside the program.
//!
//! Each instance is broken into *units* — single-cluster simulations: the
//! one cell of `closed-easy` and `service-open`, the four cells of
//! `grid-conservative`, and for `fleet-4site` one replay per site of the
//! jobs the fleet routed there. Every unit runs four ways:
//!
//! * plain (the untraced reference and the overhead denominator);
//! * wrapped — timing policy wrappers plus a [`PassObserver`], giving the
//!   pass span tree (see [`crate::trace`]);
//! * fully observed — a timed `TraceSink`, a sampled series probe and an
//!   event counter;
//! * on the calendar event queue.
//!
//! All four must reproduce the plain trace hash. Workload-specific extras
//! time the layers a unit does not cover: workload generation and the
//! streaming source, the fleet's serial/threaded runs and its per-site
//! work, and the experiment runner's cold pass, warm replay and export.
//! Metrics of a layer a workload does not exercise read 0.

use crate::stats::{median, quantile, ratio, secs, Checks, Report};
use crate::trace::{
    self_times, write_spans, PassObserver, Span, TimedOrdering, TimedPlacement, TimedSink, Tracer,
};
use crate::workloads::{
    accounts_all, combine, materialize, runner_pass, service_accounts_all, spec, Config, Kind,
};
use dmhpc_des::time::SimDuration;
use dmhpc_sim::observe::{EventCounter, Observer, RunContext, RunEnd, SampledSeriesProbe};
use dmhpc_sim::{
    EventQueueKind, FleetSimulation, ObserverFactory, ObserverSet, RunLabel, RunSpec, ServiceSpec,
    SimConfig, SimError, SimOutput, Simulation,
};
use dmhpc_workload::{JobSource as _, Workload};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One single-cluster simulation of an instance.
struct Unit {
    cfg: SimConfig,
    service: ServiceSpec,
    workload: Workload,
}

impl Unit {
    fn sim(&self, cfg: SimConfig) -> Result<Simulation, SimError> {
        Simulation::new(cfg)?.with_service_spec(self.service.clone())
    }

    fn wrapped(&self, tracer: &Arc<Tracer>) -> Result<Simulation, SimError> {
        let order = TimedOrdering {
            inner: self.cfg.scheduler.order,
            tracer: Arc::clone(tracer),
        };
        let placement = TimedPlacement {
            inner: self.cfg.scheduler.memory,
            tracer: Arc::clone(tracer),
        };
        Simulation::with_policies(self.cfg, Box::new(order), Box::new(placement))?
            .with_service_spec(self.service.clone())
    }
}

/// Totals over every traced unit of the run.
#[derive(Debug, Default)]
struct Acc {
    instances: u64,
    plain_s: f64,
    wrapped_s: f64,
    full_s: f64,
    calendar_s: f64,
    events: u64,
    pass_ns: Vec<f64>,
    pass_total_ns: f64,
    /// Pass self time minus the shadow profile estimate of the real
    /// profile build.
    pass_rest_ns: f64,
    order_calls: u64,
    order_ns: f64,
    queue_depth: u64,
    plan_calls: u64,
    plan_ns: f64,
    plan_hits: u64,
    nominal_calls: u64,
    nominal_ns: f64,
    best_calls: u64,
    best_ns: f64,
    profile_ns: f64,
    profile_releases: u64,
    sink_ns: f64,
    sink_events: u64,
    generate_ns: f64,
    generate_jobs: u64,
    source_ns: f64,
    source_jobs: u64,
    fleet_serial_s: Vec<f64>,
    fleet_threaded_s: Vec<f64>,
    fleet_site_max_s: Vec<f64>,
    fleet_site_sum_s: Vec<f64>,
    fleet_route_imbalance: Vec<f64>,
    runner_cell_sim_s: Vec<f64>,
    runner_self_s: Vec<f64>,
    runner_warm_ms_per_cell: Vec<f64>,
    runner_cache_bytes_per_cell: Vec<f64>,
    export_csv_ns: Vec<f64>,
    export_json_ns: Vec<f64>,
    /// Spans of instance 0, written out at the end.
    first_spans: Vec<Span>,
}

impl Acc {
    /// Fold one wrapped run's spans. The shadow profile build runs inside
    /// its pass but is tracing work, so it is taken out of the pass's
    /// duration; and since it estimates the real build in the pass's self
    /// time, it is taken out of the self time once more.
    fn fold_spans(&mut self, spans: &[Span]) {
        let self_ns = self_times(spans);
        let mut shadow = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.name == "profile_build") {
            if let Some(p) = s.parent {
                shadow[p] += s.busy_ns;
            }
        }
        for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
            let busy = s.busy_ns as f64;
            match s.name {
                "pass" => {
                    let pass = s.duration_ns().saturating_sub(shadow[i]) as f64;
                    self.pass_ns.push(pass);
                    self.pass_total_ns += pass;
                    self.pass_rest_ns += *own as f64 - shadow[i] as f64;
                }
                "order" => {
                    self.order_calls += 1;
                    self.order_ns += busy;
                    self.queue_depth += s.items;
                }
                "profile_build" => {
                    self.profile_ns += busy;
                    self.profile_releases += s.items;
                }
                "plan" => {
                    self.plan_calls += s.calls;
                    self.plan_ns += busy;
                    self.plan_hits += s.items;
                }
                "nominal_shape" => {
                    self.nominal_calls += s.calls;
                    self.nominal_ns += busy;
                }
                "best_dilation" => {
                    self.best_calls += s.calls;
                    self.best_ns += busy;
                }
                _ => {}
            }
        }
    }

    fn report(&self) -> Report {
        let n = self.instances.max(1) as f64;
        let passes = self.pass_ns.len() as f64;
        let mut r = Report::default();
        r.put("sched.passes", passes / n, "count");
        r.put("sched.pass_ns.p50", quantile(&self.pass_ns, 0.5), "ns");
        r.put("sched.pass_ns.p99", quantile(&self.pass_ns, 0.99), "ns");
        // Traced wall time without the shadow builds (tracing work).
        let traced_ns = self.wrapped_s * 1e9 - self.profile_ns;
        r.put(
            "sched.pass_share",
            ratio(self.pass_total_ns, traced_ns),
            "frac",
        );
        r.put(
            "sched.pass_self_ns_per_pass",
            ratio(self.pass_rest_ns.max(0.0), passes),
            "ns",
        );
        r.put("sched.order.calls", self.order_calls as f64 / n, "count");
        r.put(
            "sched.order.ns_per_call",
            ratio(self.order_ns, self.order_calls as f64),
            "ns",
        );
        r.put(
            "sched.order.queue_depth_mean",
            ratio(self.queue_depth as f64, self.order_calls as f64),
            "jobs",
        );
        r.put("sched.plan.calls", self.plan_calls as f64 / n, "count");
        r.put(
            "sched.plan.ns_per_call",
            ratio(self.plan_ns, self.plan_calls as f64),
            "ns",
        );
        r.put(
            "sched.plan.hit_ratio",
            ratio(self.plan_hits as f64, self.plan_calls as f64),
            "frac",
        );
        r.put(
            "sched.nominal_shape.calls",
            self.nominal_calls as f64 / n,
            "count",
        );
        r.put(
            "sched.nominal_shape.ns_per_call",
            ratio(self.nominal_ns, self.nominal_calls as f64),
            "ns",
        );
        r.put(
            "sched.best_dilation.calls",
            self.best_calls as f64 / n,
            "count",
        );
        r.put(
            "sched.best_dilation.ns_per_call",
            ratio(self.best_ns, self.best_calls as f64),
            "ns",
        );
        r.put(
            "sched.profile_build.ns_per_pass",
            ratio(self.profile_ns, passes),
            "ns",
        );
        r.put(
            "sched.profile_build.releases_per_pass",
            ratio(self.profile_releases as f64, passes),
            "count",
        );
        r.put(
            "sim.engine_self_share",
            ratio((traced_ns - self.pass_total_ns).max(0.0), traced_ns),
            "frac",
        );
        r.put("sim.events_processed", self.events as f64 / n, "count");
        r.put(
            "sim.passes_per_event",
            ratio(passes, self.events as f64),
            "ratio",
        );
        r.put(
            "des.calendar_over_heap",
            ratio(self.calendar_s, self.plain_s),
            "ratio",
        );
        r.put(
            "observe.trace_sink.ns_per_event",
            ratio(self.sink_ns, self.sink_events as f64),
            "ns",
        );
        r.put(
            "observe.full_over_none",
            ratio(self.full_s, self.plain_s),
            "ratio",
        );
        r.put(
            "workload.generate.ns_per_job",
            ratio(self.generate_ns, self.generate_jobs as f64),
            "ns",
        );
        r.put(
            "workload.source.ns_per_job",
            ratio(self.source_ns, self.source_jobs as f64),
            "ns",
        );
        let serial = median(&self.fleet_serial_s);
        let threaded = median(&self.fleet_threaded_s);
        let site_sum = median(&self.fleet_site_sum_s);
        r.put("fleet.serial_s", serial, "s");
        r.put("fleet.threaded_s", threaded, "s");
        r.put("fleet.speedup", ratio(serial, threaded), "ratio");
        r.put("fleet.site_work_s.max", median(&self.fleet_site_max_s), "s");
        r.put("fleet.site_work_s.sum", site_sum, "s");
        r.put("fleet.sync_overhead_s", serial - site_sum, "s");
        r.put(
            "fleet.route_imbalance",
            median(&self.fleet_route_imbalance),
            "ratio",
        );
        r.put(
            "runner.cell_sim_s.sum",
            median(&self.runner_cell_sim_s),
            "s",
        );
        r.put("runner.self_s", median(&self.runner_self_s), "s");
        r.put(
            "runner.warm_load_ms_per_cell",
            median(&self.runner_warm_ms_per_cell),
            "ms",
        );
        r.put(
            "runner.cache_bytes_per_cell",
            median(&self.runner_cache_bytes_per_cell),
            "bytes",
        );
        r.put("metrics.export_csv_ns", median(&self.export_csv_ns), "ns");
        r.put("metrics.export_json_ns", median(&self.export_json_ns), "ns");
        r.put(
            "trace.overhead_ratio",
            ratio(self.wrapped_s, self.plain_s),
            "ratio",
        );
        r
    }
}

/// Run `unit` plain, wrapped, fully observed and on the calendar queue,
/// checking that all four agree on the trace hash. Returns the plain
/// output and its wall time.
fn trace_unit(
    cfg: &Config,
    unit: &Unit,
    keep_spans: bool,
    acc: &mut Acc,
    checks: &mut Checks,
) -> Result<(SimOutput, f64), SimError> {
    let label = cfg.kind.name();
    let plain_sim = unit.sim(unit.cfg)?;
    let t = Instant::now();
    let plain = plain_sim.run(&unit.workload);
    let plain_s = secs(t);
    acc.plain_s += plain_s;
    acc.events += plain.events_processed;
    let hash = plain.trace_hash;

    let tracer = Tracer::new();
    let wrapped_sim = unit.wrapped(&tracer)?;
    let mut passes = PassObserver::new(Arc::clone(&tracer));
    let t = Instant::now();
    let wrapped = wrapped_sim.run_with(&unit.workload, ObserverSet::new().watch(&mut passes));
    acc.wrapped_s += secs(t);
    checks.check(wrapped.trace_hash == hash, || {
        format!("{label}: traced run changed the trace hash")
    });
    acc.fold_spans(&passes.spans);
    if keep_spans {
        let offset = acc.first_spans.len();
        acc.first_spans
            .extend(passes.spans.iter().cloned().map(|mut s| {
                s.parent = s.parent.map(|p| p + offset);
                s
            }));
    }

    let trace_path = cfg.unique("trace");
    let mut sink = TimedSink::create(&trace_path)?;
    let mut probe = SampledSeriesProbe::new(SimDuration::from_secs(3600));
    let mut counter = EventCounter::new();
    let t = Instant::now();
    let full = plain_sim.run_with(
        &unit.workload,
        ObserverSet::new()
            .watch(&mut sink)
            .watch(&mut probe)
            .watch(&mut counter),
    );
    acc.full_s += secs(t);
    checks.check(full.trace_hash == hash && sink.failure().is_none(), || {
        format!("{label}: observed run changed the trace hash or its sink failed")
    });
    acc.sink_ns += sink.busy_ns as f64;
    acc.sink_events += sink.events;
    let written = sink.sink.finish();
    checks.check(written.is_ok_and(|n| n > 0), || {
        format!("{label}: trace sink wrote nothing")
    });
    let _ = std::fs::remove_file(&trace_path);

    let calendar_sim = unit.sim(unit.cfg.with_event_queue(EventQueueKind::Calendar))?;
    let t = Instant::now();
    let calendar = calendar_sim.run(&unit.workload);
    acc.calendar_s += secs(t);
    checks.check(calendar.trace_hash == hash, || {
        format!("{label}: calendar queue changed the trace hash")
    });
    Ok((plain, plain_s))
}

/// Times one cell simulation inside the experiment runner.
struct CellSpan {
    start: Option<Instant>,
    done: Arc<Mutex<Vec<(ThreadId, f64)>>>,
}

impl Observer for CellSpan {
    fn on_run_start(&mut self, _ctx: &RunContext) {
        self.start = Some(Instant::now());
    }

    fn on_run_end(&mut self, _end: &RunEnd) {
        if let Some(start) = self.start {
            if let Ok(mut done) = self.done.lock() {
                done.push((std::thread::current().id(), secs(start)));
            }
        }
    }
}

/// The runner layer on this instance's grid ([`runner_pass`]) with
/// per-cell spans from an observer factory. `fleet_serial_s` stands in for
/// the cell span of a fleet cell, which the runner simulates serially and
/// without observers.
fn trace_runner(
    cfg: &Config,
    i: u64,
    expected: u64,
    fleet_serial_s: Option<f64>,
    acc: &mut Acc,
    checks: &mut Checks,
) -> Result<(), SimError> {
    let done: Arc<Mutex<Vec<(ThreadId, f64)>>> = Arc::default();
    let sink = Arc::clone(&done);
    let factory: Arc<dyn ObserverFactory> = Arc::new(move |_run: &RunLabel| {
        Ok(Box::new(CellSpan {
            start: None,
            done: Arc::clone(&sink),
        }) as Box<dyn Observer>)
    });
    let pass = runner_pass(cfg, i, expected, Some(factory), checks)?;
    let spans = done.lock().map(|d| d.clone()).unwrap_or_default();
    let (cell_sum, busiest) = match fleet_serial_s {
        Some(s) => (s, s),
        None => {
            let mut per_thread: Vec<(ThreadId, f64)> = Vec::new();
            for &(id, s) in &spans {
                match per_thread.iter_mut().find(|(t, _)| *t == id) {
                    Some((_, total)) => *total += s,
                    None => per_thread.push((id, s)),
                }
            }
            let busiest = per_thread.iter().map(|(_, s)| *s).fold(0.0, f64::max);
            (spans.iter().map(|(_, s)| s).sum(), busiest)
        }
    };
    let cells = pass.cells as f64;
    acc.runner_cell_sim_s.push(cell_sum);
    acc.runner_self_s.push((pass.cold_s - busiest).max(0.0));
    acc.runner_cache_bytes_per_cell
        .push(pass.cache_bytes as f64 / cells);
    acc.runner_warm_ms_per_cell.push(pass.warm_s * 1e3 / cells);
    acc.export_csv_ns.push(pass.csv_ns);
    acc.export_json_ns.push(pass.json_ns);
    Ok(())
}

fn trace_instance(
    cfg: &Config,
    i: u64,
    acc: &mut Acc,
    checks: &mut Checks,
) -> Result<(), SimError> {
    let n = cfg.jobs();
    let label = cfg.kind.name();
    let spec = spec(cfg.kind, cfg.instance_seed(i), n)?;
    let cells = spec.compile()?;
    let keep = i == 0;

    // Workload generation, timed apart from everything else.
    let t = Instant::now();
    let workloads: Vec<Workload> = cells.iter().map(|c| materialize(c, n)).collect();
    if cfg.kind != Kind::ServiceOpen {
        acc.generate_ns += secs(t) * 1e9;
        acc.generate_jobs += workloads.iter().map(|w| w.len() as u64).sum::<u64>();
    }

    let mut fleet_serial = None;
    let expected = match cfg.kind {
        Kind::ClosedEasy | Kind::GridConservative | Kind::ServiceOpen => {
            let mut hashes = Vec::new();
            for (cell, workload) in cells.iter().zip(workloads) {
                let unit = Unit {
                    cfg: cell.config,
                    service: cell.service.clone(),
                    workload,
                };
                let (out, _) = trace_unit(cfg, &unit, keep, acc, checks)?;
                let ok = if cfg.kind == Kind::ServiceOpen {
                    service_accounts_all(&out, n)
                } else {
                    accounts_all(&out, n)
                };
                checks.check(ok, || format!("{label}: not every job accounted for"));
                hashes.push(out.trace_hash);
                if cfg.kind == Kind::ServiceOpen {
                    trace_source(cell, n, out.trace_hash, acc, checks)?;
                }
            }
            combine(hashes)
        }
        Kind::Fleet4Site => {
            let cell = &cells[0];
            let workload = &workloads[0];
            let serial_sim = FleetSimulation::new(&cell.fleet, cell.config)?;
            let t = Instant::now();
            let serial = serial_sim.run(workload);
            let serial_s = secs(t);
            let threaded_sim = FleetSimulation::new(&cell.fleet, cell.config)?.workers(cfg.threads);
            let t = Instant::now();
            let threaded = threaded_sim.run(workload);
            acc.fleet_threaded_s.push(secs(t));
            acc.fleet_serial_s.push(serial_s);
            fleet_serial = Some(serial_s);
            checks.check(
                serial.aggregate.trace_hash == threaded.aggregate.trace_hash,
                || "serial and threaded fleet hashes differ".to_string(),
            );
            let routed = &serial.routed_jobs;
            checks.check(routed.iter().sum::<u64>() == n as u64, || {
                format!("routed {routed:?} != {n} jobs")
            });
            let mean = routed.iter().sum::<u64>() as f64 / routed.len() as f64;
            let max = routed.iter().copied().max().unwrap_or(0) as f64;
            acc.fleet_route_imbalance.push(ratio(max, mean));

            // Site replay: each site's routed jobs through a plain
            // simulation must reproduce that site's trace.
            let mut site_work = Vec::new();
            for site in &serial.site_outputs {
                let ids: BTreeSet<_> = site.records.iter().map(|r| r.job.id).collect();
                let jobs = workload
                    .iter()
                    .filter(|j| ids.contains(&j.id))
                    .cloned()
                    .collect();
                let replay = Unit {
                    cfg: cell.config,
                    service: ServiceSpec::none(),
                    workload: Workload::from_jobs(jobs),
                };
                let (out, plain_s) = trace_unit(cfg, &replay, keep, acc, checks)?;
                checks.check(out.trace_hash == site.trace_hash, || {
                    format!(
                        "{label}: replayed site hash {:#018x} != fleet site hash {:#018x}",
                        out.trace_hash, site.trace_hash
                    )
                });
                site_work.push(plain_s);
            }
            acc.fleet_site_max_s
                .push(site_work.iter().copied().fold(0.0, f64::max));
            acc.fleet_site_sum_s.push(site_work.iter().sum());
            combine([serial.aggregate.trace_hash])
        }
    };
    trace_runner(cfg, i, expected, fleet_serial, acc, checks)
}

/// The streaming source of a service cell: materialize the stream as a
/// closed batch (timed as generation) and run it closed — it must replay
/// the open run exactly — then drain an identical source (timed as the
/// source's per-job cost).
fn trace_source(
    cell: &RunSpec,
    n: usize,
    open_hash: u64,
    acc: &mut Acc,
    checks: &mut Checks,
) -> Result<(), SimError> {
    let cluster = &cell.config.cluster;
    let mut src = cell.service.open_source(cluster)?;
    let t = Instant::now();
    let jobs: Vec<_> = std::iter::from_fn(|| src.next_job()).collect();
    acc.generate_ns += secs(t) * 1e9;
    acc.generate_jobs += jobs.len() as u64;
    checks.check(jobs.len() == n, || {
        format!("service stream emitted {} of {n} jobs", jobs.len())
    });
    let closed = Simulation::new(cell.config)?.run(&Workload::from_jobs(jobs));
    checks.check(closed.trace_hash == open_hash, || {
        "the open stream does not replay as a closed batch".to_string()
    });

    let mut src = cell.service.open_source(cluster)?;
    let t = Instant::now();
    let mut drained = 0u64;
    while let Some(job) = src.next_job() {
        std::hint::black_box(job);
        drained += 1;
    }
    acc.source_ns += secs(t) * 1e9;
    acc.source_jobs += drained;
    Ok(())
}

/// The traced run: instances until the time is up; every per-layer metric.
pub fn traced(cfg: &Config, checks: &mut Checks) -> Result<(Report, u64), SimError> {
    let start = Instant::now();
    let mut acc = Acc::default();
    while acc.instances == 0 || secs(start) < cfg.seconds {
        trace_instance(cfg, acc.instances, &mut acc, checks)?;
        acc.instances += 1;
    }
    let path = cfg.out_dir.join(format!("spans-{}.jsonl", cfg.kind.name()));
    if let Err(e) = write_spans(&path, &acc.first_spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    Ok((acc.report(), acc.instances))
}
