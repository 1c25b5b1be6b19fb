//! Content-addressed result cache for experiment grids.
//!
//! Every grid cell is identified by a stable 64-bit FNV-1a hash of the
//! *content that determines its result*: the workload source (preset
//! parameters or the full trace), the cluster shape, the offered load,
//! the seed, the scheduler configuration, and the fault scenario (a
//! fault-free cell hashes nothing for it, so pre-fault caches replay
//! unchanged). Presentation-only fields — the experiment name, cluster
//! labels, `check_invariants` — are deliberately excluded, so
//! relabelling a grid keeps its cache warm.
//!
//! The store is a directory of documents (one per cell, its JSON written
//! through [`dmhpc_metrics::json`] — no new dependencies), each holding the
//! cell's *summary*: the report and trace hash; `events_processed`,
//! `passes` and `end_time`; the fault summary, `preemptions` and the
//! service summary; the cell's SLO attainment; and each step series
//! resampled at [`SUMMARY_POINTS`]. That is everything the CSV/JSON
//! exports and the `repro` tables read, so a warm run exports the same
//! bytes as a cold one while performing zero simulations, and a document
//! stays a few KB however many jobs the cell ran. Per-job records and
//! full step series are not stored: a caller that wants them runs the
//! cell without a cache, which is exact because the cell hash determines
//! the output. That identity is what makes incremental re-runs safe: edit
//! a spec and only cells whose hash changed are re-simulated.
//!
//! A document is a header line — its version and the FNV-1a digest of the
//! exact bytes that follow — then the summary as one compact JSON line.
//! The digest is checked before the JSON is parsed, so a corrupted
//! document cannot load as a hit that exports other bytes than the cold
//! run did. Unreadable, truncated, version-mismatched, or digest-mismatched
//! documents are treated as misses (the cell is simply re-simulated and its
//! file overwritten);
//! writes go through a per-process temporary file and an atomic rename,
//! so concurrent shard processes can share one cache directory. The
//! document version ([`DOC_VERSION`]) is separate from the cell-hash
//! recipe ([`CACHE_FORMAT`]): changing what a document holds re-simulates
//! old entries but moves no cell key.
//!
//! One deliberate caveat: `passes` is an engine *performance counter*,
//! not part of any export and not part of the replay-identity guarantee.
//! An engine upgrade that schedules fewer passes while producing
//! bit-identical traces bumps neither constant: old entries stay valid,
//! their results are exact, and only the loaded `passes` reflects the
//! engine that originally simulated the cell.

use super::results::{CellResult, SUMMARY_POINTS};
use super::{RunSpec, WorkloadSource};
use crate::collector::SeriesBundle;
use crate::engine::SimOutput;
use crate::error::SimError;
use crate::fnv::Fnv64;
use dmhpc_des::stats::StepSeries;
use dmhpc_des::time::SimTime;
use dmhpc_metrics::export;
use dmhpc_metrics::json::{parse, Json, JsonError};
use dmhpc_metrics::{FaultSummary, ServiceSummary};
use dmhpc_platform::{PoolTopology, SlowdownModel};
use dmhpc_sched::{MemoryPolicy, OrderPolicy};
use dmhpc_workload::source::{ArrivalProcess, Horizon};
use std::path::PathBuf;

/// Bump when the cell-hash recipe changes. It moves every cell key (and
/// the `repro grid --list` output), so a change of what a document holds
/// bumps [`DOC_VERSION`] instead.
const CACHE_FORMAT: u64 = 1;

/// Version of the stored summary document. Documents of any other
/// version load as misses: version 1 held the whole [`SimOutput`], and
/// version 2 held today's summary without the digest header.
const DOC_VERSION: u64 = 3;

// ------------------------------------------------------------------ hashing

/// Digest of a workload source: what jobs the grid will see. Presets
/// digest their calibration name and job count (the generator is
/// deterministic per seed, and seeds hash per cell); fixed traces digest
/// every job field.
pub(super) fn workload_digest(source: &WorkloadSource) -> u64 {
    let mut h = Fnv64::new();
    match source {
        WorkloadSource::Preset { preset, jobs } => {
            h.write_str("preset");
            h.write_str(preset.name());
            h.write_u64(*jobs as u64);
        }
        WorkloadSource::Fixed(w) => {
            h.write_str("fixed");
            h.write_u64(w.len() as u64);
            for job in w.iter() {
                h.write_u64(job.id.as_u64());
                h.write_u64(job.user as u64);
                h.write_u64(job.arrival.as_micros());
                h.write_u64(job.nodes as u64);
                h.write_u64(job.walltime.as_micros());
                h.write_u64(job.runtime.as_micros());
                h.write_u64(job.mem_per_node);
                h.write_f64(job.intensity);
                // SLO stamps digest only when present: unstamped jobs
                // hash byte-identically to pre-SLO digests, keeping old
                // caches warm.
                match job.slo {
                    None => {}
                    Some(dmhpc_workload::Slo::Deadline { deadline_s }) => {
                        h.write_str("slo-deadline");
                        h.write_f64(deadline_s);
                    }
                    Some(dmhpc_workload::Slo::BudgetFactor { factor }) => {
                        h.write_str("slo-bf");
                        h.write_f64(factor);
                    }
                }
            }
        }
    }
    h.finish()
}

/// Hash a cluster's machine shape (labels are presentation-only and
/// excluded). Shared by the cell's own cluster and pinned fleet sites.
fn hash_cluster(h: &mut Fnv64, cluster: &dmhpc_platform::ClusterSpec) {
    h.write_u64(cluster.racks as u64);
    h.write_u64(cluster.nodes_per_rack as u64);
    h.write_u64(cluster.node.cores as u64);
    h.write_u64(cluster.node.local_mem);
    match cluster.pool {
        PoolTopology::None => h.write_str("none"),
        PoolTopology::PerRack { mib_per_rack } => {
            h.write_str("per-rack");
            h.write_u64(mib_per_rack);
        }
        PoolTopology::Global { mib } => {
            h.write_str("global");
            h.write_u64(mib);
        }
    }
}

/// Hash a full scheduler configuration. Shared by the cell's own
/// scheduler and pinned fleet sites.
fn hash_scheduler(h: &mut Fnv64, sched: &dmhpc_sched::SchedulerConfig) {
    match sched.order {
        OrderPolicy::Wfp { exponent } => {
            h.write_str("wfp");
            h.write_f64(exponent);
        }
        OrderPolicy::BatchBudget { hold_s } => {
            h.write_str("batch-budget");
            h.write_f64(hold_s);
        }
        other => h.write_str(other.name()),
    }
    h.write_str(sched.backfill.name());
    match sched.memory {
        MemoryPolicy::SlowdownAware { max_dilation } => {
            h.write_str("slowdown-aware");
            h.write_f64(max_dilation);
        }
        MemoryPolicy::LaxityAware { max_dilation } => {
            h.write_str("laxity-aware");
            h.write_f64(max_dilation);
        }
        other => h.write_str(other.name()),
    }
    match sched.slowdown {
        SlowdownModel::None => h.write_str("none"),
        SlowdownModel::Linear { penalty } => {
            h.write_str("linear");
            h.write_f64(penalty);
        }
        SlowdownModel::Saturating { penalty, curvature } => {
            h.write_str("saturating");
            h.write_f64(penalty);
            h.write_f64(curvature);
        }
        SlowdownModel::Contention { penalty, gamma } => {
            h.write_str("contention");
            h.write_f64(penalty);
            h.write_f64(gamma);
        }
    }
    h.write_u64(sched.inflate_walltime as u64);
    // Admission/preemption digest only when non-default, so cells compiled
    // before the knobs existed keep their hashes — and their caches.
    if sched.admission != dmhpc_sched::AdmissionPolicy::AdmitAll {
        h.write_str("admission");
        h.write_str(sched.admission.name());
    }
    if let dmhpc_sched::PreemptPolicy::LaxityCheckpoint { overhead_s } = sched.preempt {
        h.write_str("preempt");
        h.write_u64(overhead_s);
    }
}

/// The content hash of one compiled grid cell. Two cells with equal
/// hashes run the same simulation and produce the same [`SimOutput`].
pub(super) fn cell_hash(workload_digest: u64, cell: &RunSpec) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(CACHE_FORMAT);
    h.write_u64(workload_digest);
    h.write_opt_u64(cell.key.load.map(f64::to_bits));
    h.write_opt_u64(cell.key.seed);

    hash_cluster(&mut h, &cell.config.cluster);
    hash_scheduler(&mut h, &cell.config.scheduler);
    h.write_u64(cell.config.enforce_walltime as u64);

    // Fault scenario: a fault-free cell writes NOTHING, so its hash is
    // bit-identical to what pre-fault engines computed — existing caches
    // stay warm. Any non-none scenario appends its full content.
    if !cell.faults.is_none() {
        h.write_str("faults");
        h.write_u64(cell.faults.schedule.len() as u64);
        for (at, action) in &cell.faults.schedule {
            h.write_u64(at.as_micros());
            h.write_u64(crate::faults::action_tag(action));
        }
        match &cell.faults.generator {
            None => h.write_u64(0),
            Some(g) => {
                h.write_u64(1);
                h.write_u64(g.seed);
                h.write_u64(g.horizon_s);
                h.write_u64(g.node_mtbf_s);
                h.write_u64(g.node_repair_s);
                h.write_u64(g.drain_interval_s);
                h.write_u64(g.drain_duration_s);
                h.write_u64(g.pool_degrade_interval_s);
                h.write_u64(g.pool_degrade_duration_s);
                h.write_f64(g.pool_degrade_factor);
            }
        }
        match cell.faults.interrupt {
            crate::faults::InterruptPolicy::Resubmit => h.write_str("resubmit"),
            crate::faults::InterruptPolicy::Checkpoint { overhead_s } => {
                h.write_str("checkpoint");
                h.write_u64(overhead_s);
            }
        }
        h.write_u64(cell.faults.max_resubmits as u64);
    }

    // Service scenario: same convention as faults — the closed-batch
    // identity writes NOTHING, so service-free cells hash bit-identically
    // to caches built before open-system runs existed.
    if !cell.service.is_none() {
        h.write_str("service");
        h.write_str(cell.service.preset.map_or("none", |p| p.name()));
        match cell.service.process {
            ArrivalProcess::Poisson => h.write_str("poisson"),
            ArrivalProcess::Daily { peak_to_trough } => {
                h.write_str("daily");
                h.write_f64(peak_to_trough);
            }
            ArrivalProcess::Mmpp {
                burst_ratio,
                mean_dwell_secs,
            } => {
                h.write_str("mmpp");
                h.write_f64(burst_ratio);
                h.write_f64(mean_dwell_secs);
            }
        }
        match cell.service.load {
            crate::service::ServiceLoad::Rate {
                mean_interarrival_secs,
            } => {
                h.write_str("rate");
                h.write_f64(mean_interarrival_secs);
            }
            crate::service::ServiceLoad::Utilization { target } => {
                h.write_str("util");
                h.write_f64(target);
            }
        }
        match cell.service.horizon {
            None => h.write_str("none"),
            Some(Horizon::Jobs(n)) => {
                h.write_str("jobs");
                h.write_u64(n);
            }
            Some(Horizon::Duration(d)) => {
                h.write_str("secs");
                h.write_u64(d.as_secs());
            }
        }
        h.write_u64(cell.service.warmup_s);
        h.write_opt_u64(cell.service.slo_wait_s.map(f64::to_bits));
        // Budget-factor stamping hashes only when set: pre-SLO service
        // cells keep their hashes (and caches) unchanged.
        if let Some((lo, hi)) = cell.service.slo_budget_factor {
            h.write_str("slo-bf");
            h.write_f64(lo);
            h.write_f64(hi);
        }
        h.write_opt_u64(cell.service.seed);
    }

    // Fleet scenario: same convention again — the single-cluster identity
    // writes NOTHING, so fleet-free cells hash bit-identically to caches
    // built before federation existed. Site labels are presentation-only
    // (like cluster labels) and excluded.
    if !cell.fleet.is_none() {
        h.write_str("fleet");
        h.write_f64(cell.fleet.epoch_s);
        h.write_str(cell.fleet.policy.name());
        h.write_u64(cell.fleet.sites.len() as u64);
        for site in &cell.fleet.sites {
            match &site.cluster {
                None => h.write_u64(0),
                Some(c) => {
                    h.write_u64(1);
                    hash_cluster(&mut h, c);
                }
            }
            match &site.scheduler {
                None => h.write_u64(0),
                Some(s) => {
                    h.write_u64(1);
                    hash_scheduler(&mut h, s);
                }
            }
        }
    }
    h.finish()
}

// ---------------------------------------------------------- cell summaries

/// A series resampled at [`SUMMARY_POINTS`] over `[start, end]`.
/// Replaying the samples through [`SeriesBundle::from_points`] and
/// resampling again reproduces them exactly: a resample is a step lookup
/// at fixed times, and those times are the samples' own.
fn series_to_json(series: &StepSeries, end: SimTime) -> Json {
    Json::Arr(
        series
            .resample(end, SUMMARY_POINTS)
            .into_iter()
            .map(|(t, v)| Json::Arr(vec![Json::UInt(t.as_micros()), Json::F64(v)]))
            .collect(),
    )
}

fn series_from_json(v: &Json) -> Result<Vec<(SimTime, f64)>, JsonError> {
    let points: Vec<(SimTime, f64)> = v
        .to_arr()?
        .iter()
        .map(|p| {
            let pair = p.to_arr()?;
            if pair.len() != 2 {
                return Err(JsonError {
                    message: format!("series point must be [t, v], got {} items", pair.len()),
                    offset: 0,
                });
            }
            Ok((SimTime::from_micros(pair[0].to_u64()?), pair[1].to_f64()?))
        })
        .collect::<Result<_, _>>()?;
    // Replay feeds these into the causal `TimeWeighted` integrator, which
    // panics on time going backwards — a corrupt entry must be a cache
    // miss instead, so reject non-monotonic timestamps here.
    if points.windows(2).any(|w| w[1].0 < w[0].0) {
        return Err(JsonError {
            message: "series timestamps are not monotonic".into(),
            offset: 0,
        });
    }
    Ok(points)
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F64)
}

fn opt_f64_from(v: &Json) -> Result<Option<f64>, JsonError> {
    match v {
        Json::Null => Ok(None),
        v => v.to_f64().map(Some),
    }
}

fn summary_to_json(hash: u64, cell: &CellResult) -> Json {
    let output = &cell.output;
    let end = output.end_time;
    let series = &output.series;
    let faults = &output.faults;
    let service = output.service.as_ref().map_or(Json::Null, |svc| {
        Json::obj(vec![
            ("observed", Json::UInt(svc.observed)),
            ("warmup_skipped", Json::UInt(svc.warmup_skipped)),
            ("p99_wait_s", Json::F64(svc.p99_wait_s)),
            ("slo_wait_s", opt_f64(svc.slo_wait_s)),
            ("slo_attained", opt_f64(svc.slo_attained)),
        ])
    });
    Json::obj(vec![
        ("cell_hash", Json::UInt(hash)),
        ("report", export::report_to_value(&output.report)),
        ("trace_hash", Json::UInt(output.trace_hash)),
        ("events_processed", Json::UInt(output.events_processed)),
        ("passes", Json::UInt(output.passes)),
        ("end_time_us", Json::UInt(end.as_micros())),
        (
            "faults",
            Json::obj(vec![
                ("interruptions", Json::UInt(faults.interruptions)),
                ("resubmissions", Json::UInt(faults.resubmissions)),
                ("rework_s", Json::F64(faults.rework_s)),
                ("downtime_node_s", Json::F64(faults.downtime_node_s)),
                ("avail_util", Json::F64(faults.avail_util)),
            ]),
        ),
        ("preemptions", Json::UInt(output.preemptions)),
        ("service", service),
        ("slo_attainment", opt_f64(cell.slo_attainment)),
        (
            "series",
            Json::obj(vec![
                ("nodes_busy", series_to_json(&series.nodes_busy, end)),
                ("pool_used", series_to_json(&series.pool_used, end)),
                ("dram_used", series_to_json(&series.dram_used, end)),
                ("queue_depth", series_to_json(&series.queue_depth, end)),
            ]),
        ),
    ])
}

/// The header line of a document whose summary line is `body`: the
/// document version and the FNV-1a digest of `body`'s bytes.
fn document_header(body: &str) -> String {
    let mut h = Fnv64::new();
    h.write_bytes(body.as_bytes());
    format!("{DOC_VERSION} {:016x}", h.finish())
}

/// The summary line of a stored document, if its header names this
/// version and the digest of exactly those bytes.
fn checked_body(text: &str) -> Option<&str> {
    let (header, body) = text.split_once('\n')?;
    (header == document_header(body)).then_some(body)
}

/// Rebuild a cell's output (records empty, series at [`SUMMARY_POINTS`])
/// and its SLO attainment from a summary document.
fn summary_from_json(
    doc: &Json,
    hash: u64,
    cell: &RunSpec,
) -> Result<(SimOutput, Option<f64>), JsonError> {
    let mismatch = |what: &str| JsonError {
        message: format!("cache entry {what} mismatch"),
        offset: 0,
    };
    if doc.expect_key("cell_hash")?.to_u64()? != hash {
        return Err(mismatch("cell_hash"));
    }
    let series = doc.expect_key("series")?;
    let bundle = SeriesBundle::from_points(
        &cell.config.cluster,
        &series_from_json(series.expect_key("nodes_busy")?)?,
        &series_from_json(series.expect_key("pool_used")?)?,
        &series_from_json(series.expect_key("dram_used")?)?,
        &series_from_json(series.expect_key("queue_depth")?)?,
    )
    .ok_or_else(|| JsonError {
        message: "cache entry has an empty step series".into(),
        offset: 0,
    })?;
    let f = doc.expect_key("faults")?;
    let faults = FaultSummary {
        interruptions: f.expect_key("interruptions")?.to_u64()?,
        resubmissions: f.expect_key("resubmissions")?.to_u64()?,
        rework_s: f.expect_key("rework_s")?.to_f64()?,
        downtime_node_s: f.expect_key("downtime_node_s")?.to_f64()?,
        avail_util: f.expect_key("avail_util")?.to_f64()?,
    };
    let service = match doc.expect_key("service")? {
        Json::Null => None,
        s => Some(ServiceSummary {
            observed: s.expect_key("observed")?.to_u64()?,
            warmup_skipped: s.expect_key("warmup_skipped")?.to_u64()?,
            p99_wait_s: s.expect_key("p99_wait_s")?.to_f64()?,
            slo_wait_s: opt_f64_from(s.expect_key("slo_wait_s")?)?,
            slo_attained: opt_f64_from(s.expect_key("slo_attained")?)?,
        }),
    };
    let output = SimOutput {
        report: export::report_from_value(doc.expect_key("report")?)?,
        records: Vec::new(),
        series: bundle,
        events_processed: doc.expect_key("events_processed")?.to_u64()?,
        passes: doc.expect_key("passes")?.to_u64()?,
        trace_hash: doc.expect_key("trace_hash")?.to_u64()?,
        end_time: SimTime::from_micros(doc.expect_key("end_time_us")?.to_u64()?),
        faults,
        preemptions: doc.expect_key("preemptions")?.to_u64()?,
        service,
    };
    Ok((output, opt_f64_from(doc.expect_key("slo_attainment")?)?))
}

// ----------------------------------------------------------------- the store

/// A directory of content-addressed cell summaries, attached through
/// [`super::ExperimentRunner::cache_dir`]: the runner loads unchanged
/// cells instead of simulating them and stores every freshly simulated
/// cell. One directory can back any number of specs and shard processes.
#[derive(Debug, Clone)]
pub(super) struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory.
    pub(super) fn open(dir: impl Into<PathBuf>) -> Result<Self, SimError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SimError::io(format!("creating cache dir {}", dir.display()), e))?;
        Ok(ResultCache { dir })
    }

    fn path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("cell-{hash:016x}.json"))
    }

    /// Load a cell's summary output and SLO attainment by cell hash.
    /// Missing, unreadable, corrupt, version- or digest-mismatched entries
    /// all return `None` — the caller simply re-simulates (and re-stores) the
    /// cell.
    pub(super) fn load_cell(&self, hash: u64, cell: &RunSpec) -> Option<(SimOutput, Option<f64>)> {
        let text = std::fs::read_to_string(self.path(hash)).ok()?;
        let doc = parse(checked_body(&text)?).ok()?;
        summary_from_json(&doc, hash, cell).ok()
    }

    /// Store one simulated cell's summary under its content hash. Writes
    /// to a process-unique temporary file then renames, so concurrent
    /// shard processes never observe half-written entries.
    pub(super) fn store_cell(&self, hash: u64, cell: &CellResult) -> Result<(), SimError> {
        let final_path = self.path(hash);
        let tmp_path = self
            .dir
            .join(format!("cell-{hash:016x}.tmp.{}", std::process::id()));
        // Compact form: cache entries are machine artifacts, and they are
        // read far more often than humans inspect them.
        let body = summary_to_json(hash, cell).to_string_compact();
        let text = format!("{}\n{body}", document_header(&body));
        std::fs::write(&tmp_path, text)
            .map_err(|e| SimError::io(format!("writing {}", tmp_path.display()), e))?;
        std::fs::rename(&tmp_path, &final_path)
            .map_err(|e| SimError::io(format!("publishing {}", final_path.display()), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{default_slowdown, policy_suite};
    use crate::{ExperimentRunner, ExperimentSpec};
    use dmhpc_workload::SystemPreset;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::builder("cache-test")
            .preset(SystemPreset::HighThroughput, 40)
            .pool(PoolTopology::PerRack {
                mib_per_rack: 384 * 1024,
            })
            .load(0.8)
            .seeds([1, 2])
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dmhpc-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hashes_are_unique_per_cell_and_stable() {
        let spec = spec();
        let digest = workload_digest(&spec.workload);
        let cells = spec.compile().unwrap();
        let mut hashes: Vec<u64> = cells.iter().map(|c| cell_hash(digest, c)).collect();
        // Stable across recompiles.
        let again: Vec<u64> = spec
            .compile()
            .unwrap()
            .iter()
            .map(|c| cell_hash(digest, c))
            .collect();
        assert_eq!(hashes, again);
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), cells.len(), "cells hash distinctly");
    }

    #[test]
    fn hash_ignores_labels_but_not_content() {
        let spec = spec();
        let digest = workload_digest(&spec.workload);
        let cells = spec.compile().unwrap();
        // Relabelling the cluster does not move the cell.
        let mut relabelled = cells[0].clone();
        relabelled.key.cluster = "renamed".into();
        assert_eq!(cell_hash(digest, &cells[0]), cell_hash(digest, &relabelled));
        // Changing real content does.
        let mut edited = cells[0].clone();
        edited.config.enforce_walltime = !edited.config.enforce_walltime;
        assert_ne!(cell_hash(digest, &cells[0]), cell_hash(digest, &edited));
        let mut reseeded = cells[0].clone();
        reseeded.key.seed = Some(999);
        assert_ne!(cell_hash(digest, &cells[0]), cell_hash(digest, &reseeded));
    }

    #[test]
    fn fleet_axis_is_hash_neutral_when_none_and_content_otherwise() {
        use crate::federation::FleetSpec;
        let base = spec();
        let digest = workload_digest(&base.workload);
        let plain: Vec<u64> = base
            .compile()
            .unwrap()
            .iter()
            .map(|c| cell_hash(digest, c))
            .collect();
        // An explicit no-fleet axis writes nothing: pre-federation caches
        // stay warm.
        let with_none = crate::ExperimentBuilder::from_spec(base.clone())
            .fleet(FleetSpec::none())
            .build()
            .unwrap();
        let none_hashes: Vec<u64> = with_none
            .compile()
            .unwrap()
            .iter()
            .map(|c| cell_hash(digest, c))
            .collect();
        assert_eq!(plain, none_hashes, "no-fleet axis is hash-neutral");
        // A real fleet moves every cell.
        let with_fleet = crate::ExperimentBuilder::from_spec(base)
            .fleet(FleetSpec::symmetric(
                2,
                120.0,
                dmhpc_sched::MetaPolicyKind::RoundRobin,
            ))
            .build()
            .unwrap();
        for (cell, old) in with_fleet.compile().unwrap().iter().zip(&plain) {
            assert_ne!(cell_hash(digest, cell), *old, "federated cells move");
        }
        // And the epoch length is content.
        let mut longer = with_fleet.clone();
        longer.scenarios = vec![crate::Scenario::Fleet(FleetSpec::symmetric(
            2,
            240.0,
            dmhpc_sched::MetaPolicyKind::RoundRobin,
        ))];
        assert_ne!(
            cell_hash(digest, &with_fleet.compile().unwrap()[0]),
            cell_hash(digest, &longer.compile().unwrap()[0]),
            "epoch length is result-determining content"
        );
    }

    #[test]
    fn workload_digest_tracks_source_content() {
        let preset_40 = workload_digest(&WorkloadSource::Preset {
            preset: SystemPreset::HighThroughput,
            jobs: 40,
        });
        let preset_41 = workload_digest(&WorkloadSource::Preset {
            preset: SystemPreset::HighThroughput,
            jobs: 41,
        });
        assert_ne!(preset_40, preset_41);

        let w = SystemPreset::HighThroughput.synthetic_spec(20).generate(7);
        let fixed_a = workload_digest(&WorkloadSource::Fixed(std::sync::Arc::new(w.clone())));
        let mut jobs: Vec<_> = w.iter().cloned().collect();
        jobs[0].mem_per_node += 1;
        let fixed_b = workload_digest(&WorkloadSource::Fixed(std::sync::Arc::new(
            dmhpc_workload::Workload::from_jobs(jobs),
        )));
        assert_ne!(fixed_a, fixed_b, "one MiB of one job changes the digest");
    }

    #[test]
    fn summary_round_trips_through_the_store() {
        let dir = tmp_dir("roundtrip");
        let spec = spec();
        let runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
        let cold = runner.run(&spec).unwrap();
        let warm = runner.run(&spec).unwrap();
        assert_eq!(warm.stats().cache_hits, spec.cell_count());
        for entry in std::fs::read_dir(&dir).unwrap() {
            let bytes = entry.unwrap().metadata().unwrap().len();
            assert!(bytes < 16 * 1024, "a summary document is small: {bytes} B");
        }
        let _ = std::fs::remove_dir_all(&dir);
        for (c, w) in cold.cells().iter().zip(warm.cells()) {
            let (a, b) = (&c.output, &w.output);
            assert!(!a.records.is_empty() && b.records.is_empty());
            assert_eq!(b.trace_hash, a.trace_hash);
            assert_eq!(b.events_processed, a.events_processed);
            assert_eq!(b.passes, a.passes);
            assert_eq!(b.end_time, a.end_time);
            assert_eq!(b.faults, a.faults);
            assert_eq!(b.preemptions, a.preemptions);
            assert_eq!(b.service, a.service);
            assert_eq!(w.slo_attainment(), c.slo_attainment());
            assert_eq!(
                export::report_csv_row(&b.report),
                export::report_csv_row(&a.report)
            );
            let end = a.end_time;
            for (x, y) in [
                (&a.series.nodes_busy, &b.series.nodes_busy),
                (&a.series.pool_used, &b.series.pool_used),
                (&a.series.dram_used, &b.series.dram_used),
                (&a.series.queue_depth, &b.series.queue_depth),
            ] {
                assert_eq!(
                    y.resample(end, SUMMARY_POINTS),
                    x.resample(end, SUMMARY_POINTS)
                );
            }
        }
    }

    #[test]
    fn warm_cells_are_exact_only_through_the_report_and_summary_series() {
        // Which accessors of a warm cell's output are exact. The report,
        // and each `*_series` helper at SUMMARY_POINTS, match the cold
        // cell bit for bit. The series integrators, the raw breakpoints
        // and resamples at any other resolution are computed from
        // SUMMARY_POINTS samples, so they may differ: a table that needs
        // utilization or queue depth reads the report, not
        // `output.series`.
        let dir = tmp_dir("exact");
        let spec = spec();
        let runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
        let cold = runner.run(&spec).unwrap();
        let warm = runner.run(&spec).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let (a, b) = (&cold.cells()[0].output, &warm.cells()[0].output);
        let end = a.end_time;
        let (x, y) = (&a.series, &b.series);
        assert_eq!(
            export::report_csv_row(&b.report),
            export::report_csv_row(&a.report)
        );
        assert_eq!(
            y.node_util_series(end, SUMMARY_POINTS),
            x.node_util_series(end, SUMMARY_POINTS)
        );
        assert_eq!(
            y.pool_util_series(end, SUMMARY_POINTS),
            x.pool_util_series(end, SUMMARY_POINTS)
        );
        assert_eq!(
            y.dram_util_series(end, SUMMARY_POINTS),
            x.dram_util_series(end, SUMMARY_POINTS)
        );
        // The report carries the exact integrals; the warm integrators,
        // peak and breakpoints do not.
        assert_eq!(b.report.node_util, x.node_util(end));
        assert_eq!(b.report.queue_depth_max, x.queue_depth_max());
        assert_ne!(y.node_util(end), x.node_util(end));
        assert_ne!(y.queue_depth_max(), x.queue_depth_max());
        assert!(y.nodes_busy.points().len() < x.nodes_busy.points().len());
        assert!(b.records.is_empty() && !a.records.is_empty());
    }

    #[test]
    fn corrupt_entries_miss_instead_of_failing() {
        let spec = spec();
        let cell = spec.compile().unwrap().remove(0);
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::open(&dir).unwrap();
        let hash = cell_hash(workload_digest(&spec.workload), &cell);
        std::fs::write(cache.path(hash), "{ not json").unwrap();
        assert!(cache.load_cell(hash, &cell).is_none());
        // Wrong hash inside the file (e.g. manual rename) also misses.
        let body = r#"{"cell_hash": 12345}"#;
        std::fs::write(
            cache.path(hash),
            format!("{}\n{body}", document_header(body)),
        )
        .unwrap();
        assert!(cache.load_cell(hash, &cell).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_monotonic_series_is_a_parse_error_not_a_panic() {
        // The replay path feeds the causal TimeWeighted integrator, so a
        // parseable-but-corrupt entry with time going backwards must be
        // rejected here (=> cache miss), never replayed.
        let good = parse("[[0, 0.0], [10, 2.0], [10, 3.0]]").unwrap();
        assert!(series_from_json(&good).is_ok());
        let bad = parse("[[10000000, 1.0], [5000000, 2.0]]").unwrap();
        let err = series_from_json(&bad).unwrap_err();
        assert!(err.message.contains("monotonic"), "{err}");
    }

    #[test]
    fn runner_integration_cold_then_warm() {
        let dir = tmp_dir("runner");
        let spec = spec();
        let cold = ExperimentRunner::with_threads(2)
            .cache_dir(&dir)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(cold.stats().simulated, spec.cell_count());
        assert_eq!(cold.stats().cache_hits, 0);

        let warm = ExperimentRunner::with_threads(2)
            .cache_dir(&dir)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(warm.stats().simulated, 0, "warm run simulates nothing");
        assert_eq!(warm.stats().cache_hits, spec.cell_count());
        assert_eq!(warm.to_csv(), cold.to_csv(), "CSV export byte-identical");
        assert_eq!(warm.to_json(), cold.to_json(), "JSON export byte-identical");
        for (a, b) in warm.cells().iter().zip(cold.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.output.trace_hash, b.output.trace_hash);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
