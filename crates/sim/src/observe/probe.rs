//! Sampling and counting observers.

use super::{Observer, RunContext, RunEnd, SimEvent};
use dmhpc_des::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One sample of system state at a cadence boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRow {
    /// Sample time.
    pub at: SimTime,
    /// Wait-queue depth.
    pub queued: u32,
    /// Running jobs.
    pub running: u32,
    /// Busy nodes.
    pub nodes_busy: u32,
    /// Node-local DRAM pinned, MiB.
    pub dram_mib: u64,
    /// Pool memory borrowed, MiB.
    pub pool_mib: u64,
}

/// Samples system state (queue depth, running jobs, busy nodes, memory
/// occupancy) at a fixed cadence: output size is `makespan / cadence`,
/// independent of event count — the bounded-memory alternative to the
/// full [`crate::SeriesBundle`] breakpoints for long runs.
///
/// Sampling is deterministic step-and-hold: each sample reports the state
/// just before the first event at or after the sample instant.
#[derive(Debug, Clone)]
pub struct SampledSeriesProbe {
    cadence: SimDuration,
    next: Option<SimTime>,
    queued: i64,
    running: i64,
    nodes_busy: i64,
    dram_mib: i64,
    pool_mib: i64,
    rows: Vec<SampleRow>,
}

impl SampledSeriesProbe {
    /// A probe sampling every `cadence` of simulated time.
    ///
    /// # Panics
    /// Panics on a zero cadence.
    pub fn new(cadence: SimDuration) -> Self {
        assert!(!cadence.is_zero(), "sample cadence must be positive");
        SampledSeriesProbe {
            cadence,
            next: None,
            queued: 0,
            running: 0,
            nodes_busy: 0,
            dram_mib: 0,
            pool_mib: 0,
            rows: Vec::new(),
        }
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> &[SampleRow] {
        &self.rows
    }

    fn sample_until(&mut self, at: SimTime) {
        while let Some(next) = self.next {
            if next > at {
                break;
            }
            let row = self.snapshot(next);
            self.rows.push(row);
            self.next = Some(next + self.cadence);
        }
    }

    fn snapshot(&self, at: SimTime) -> SampleRow {
        SampleRow {
            at,
            queued: self.queued.max(0) as u32,
            running: self.running.max(0) as u32,
            nodes_busy: self.nodes_busy.max(0) as u32,
            dram_mib: self.dram_mib.max(0) as u64,
            pool_mib: self.pool_mib.max(0) as u64,
        }
    }
}

impl Observer for SampledSeriesProbe {
    fn on_run_start(&mut self, ctx: &RunContext) {
        self.next = Some(ctx.start);
        self.rows.clear();
    }

    fn on_event(&mut self, ev: &SimEvent) {
        self.sample_until(ev.at());
        match *ev {
            SimEvent::JobSubmitted { .. } => self.queued += 1,
            SimEvent::JobStarted { .. } => {
                self.queued -= 1;
                self.running += 1;
            }
            SimEvent::AllocationGrabbed {
                nodes,
                local_mib,
                remote_mib,
                ..
            } => {
                self.nodes_busy += nodes as i64;
                self.dram_mib += local_mib as i64;
                self.pool_mib += remote_mib as i64;
            }
            SimEvent::AllocationReleased {
                nodes,
                local_mib,
                remote_mib,
                ..
            } => {
                self.running -= 1;
                self.nodes_busy -= nodes as i64;
                self.dram_mib -= local_mib as i64;
                self.pool_mib -= remote_mib as i64;
            }
            SimEvent::JobRejected { .. } => self.queued -= 1,
            SimEvent::JobFailed { ref record, .. } if record.start.is_none() => self.queued -= 1,
            _ => {}
        }
    }

    fn on_run_end(&mut self, end: &RunEnd) {
        // Drain pending cadence points, then close the series with one
        // final sample of the end-of-run state at the window end. On
        // fault runs, trailing repair/drain-end events can outlive the
        // clamped metrics window, leaving the last recorded row *past*
        // `end.end` — never append behind it (samples stay monotonic).
        self.sample_until(end.end);
        if self.rows.last().is_none_or(|r| r.at < end.end) {
            let row = self.snapshot(end.end);
            self.rows.push(row);
        }
    }
}

/// Counts events per kind — the cheapest possible observer (tests,
/// benches, quick sanity checks).
#[derive(Debug, Clone, Default)]
pub struct EventCounter {
    counts: BTreeMap<&'static str, u64>,
}

impl EventCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Events of one kind (see [`SimEvent::kind`]).
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// Total events observed.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// All (kind, count) pairs, sorted by kind.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

impl Observer for EventCounter {
    fn on_event(&mut self, ev: &SimEvent) {
        *self.counts.entry(ev.kind()).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmhpc_workload::{JobBuilder, JobId};

    fn submit(at: u64) -> SimEvent {
        SimEvent::JobSubmitted {
            at: SimTime::from_secs(at),
            job: JobBuilder::new(at).nodes(1).runtime_secs(10, 20).build(),
            resubmit: false,
        }
    }

    #[test]
    fn probe_samples_on_cadence() {
        let mut p = SampledSeriesProbe::new(SimDuration::from_secs(10));
        p.next = Some(SimTime::ZERO);
        p.on_event(&submit(5));
        p.on_event(&SimEvent::JobStarted {
            at: SimTime::from_secs(25),
            job: JobId(5),
            nodes: 1,
            dilation: 1.0,
        });
        // Samples at t=0 (before submit), 10, 20 (before start).
        assert_eq!(p.samples().len(), 3);
        assert_eq!(p.samples()[0].queued, 0);
        assert_eq!(p.samples()[1].queued, 1);
        assert_eq!(p.samples()[2].queued, 1);
        p.on_run_end(&RunEnd {
            at: SimTime::from_secs(31),
            end: SimTime::from_secs(31),
            events_processed: 2,
            passes: 1,
            trace_hash: 0,
        });
        // Cadence point at 30, then the closing end-of-window sample.
        let last = *p.samples().last().unwrap();
        assert_eq!(last.at, SimTime::from_secs(31));
        assert_eq!(last.queued, 0);
        assert_eq!(last.running, 1);
        let n = p.samples().len();
        assert_eq!(p.samples()[n - 2].at, SimTime::from_secs(30));
    }

    #[test]
    fn counter_counts_kinds() {
        let mut c = EventCounter::new();
        c.on_event(&submit(1));
        c.on_event(&submit(2));
        assert_eq!(c.count("submit"), 2);
        assert_eq!(c.count("start"), 0);
        assert_eq!(c.total(), 2);
    }
}
