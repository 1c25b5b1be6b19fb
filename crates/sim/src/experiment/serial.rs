//! JSON (de)serialization of [`ExperimentSpec`].
//!
//! The encoding is a stable, human-editable document — specs can live in
//! version control next to the paper's tables and be replayed byte-exactly
//! (integer seeds and MiB capacities round-trip exactly through
//! [`dmhpc_metrics::json`]). Enum variants use externally tagged form:
//! unit variants are strings (`"fcfs"`), data variants are single-key
//! objects (`{"wfp": {"exponent": 3.0}}`).

use super::{ExperimentSpec, Scenario, WorkloadSource};
use crate::error::SimError;
use crate::faults::{FaultAction, FaultGenerator, FaultSpec, InterruptPolicy};
use crate::federation::{FleetSpec, SiteSpec};
use crate::service::{ServiceLoad, ServiceSpec};
use dmhpc_des::time::{SimDuration, SimTime};
use dmhpc_metrics::json::{parse, Json, JsonError};
use dmhpc_platform::{ClusterSpec, NodeId, NodeSpec, PoolId, PoolTopology, SlowdownModel};
use dmhpc_sched::{
    AdmissionPolicy, BackfillPolicy, MemoryPolicy, MetaPolicyKind, OrderPolicy, PreemptPolicy,
    SchedulerConfig,
};
use dmhpc_workload::source::{ArrivalProcess, Horizon};
use dmhpc_workload::SystemPreset;

fn shape(reason: impl Into<String>) -> JsonError {
    JsonError {
        message: reason.into(),
        offset: 0,
    }
}

/// Tag of an externally tagged enum value: either the string itself or the
/// single key of a one-entry object (returning its payload).
fn tagged(v: &Json) -> Result<(&str, Option<&Json>), JsonError> {
    match v {
        Json::Str(s) => Ok((s, None)),
        Json::Obj(pairs) if pairs.len() == 1 => Ok((&pairs[0].0, Some(&pairs[0].1))),
        _ => Err(shape(format!("expected enum tag, got {v:?}"))),
    }
}

fn payload<'a>(data: Option<&'a Json>, tag: &str) -> Result<&'a Json, JsonError> {
    data.ok_or_else(|| shape(format!("variant {tag:?} needs a payload object")))
}

// ---------------------------------------------------------------- to json

fn pool_to_json(pool: &PoolTopology) -> Json {
    match *pool {
        PoolTopology::None => Json::Str("none".into()),
        PoolTopology::PerRack { mib_per_rack } => Json::obj(vec![(
            "per-rack",
            Json::obj(vec![("mib_per_rack", Json::UInt(mib_per_rack))]),
        )]),
        PoolTopology::Global { mib } => {
            Json::obj(vec![("global", Json::obj(vec![("mib", Json::UInt(mib))]))])
        }
    }
}

fn cluster_shape_fields(spec: &ClusterSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("racks", Json::UInt(spec.racks as u64)),
        ("nodes_per_rack", Json::UInt(spec.nodes_per_rack as u64)),
        ("cores", Json::UInt(spec.node.cores as u64)),
        ("node_mem_mib", Json::UInt(spec.node.local_mem)),
        ("pool", pool_to_json(&spec.pool)),
    ]
}

fn cluster_to_json(label: &str, spec: &ClusterSpec) -> Json {
    let mut pairs = vec![("label", Json::Str(label.into()))];
    pairs.extend(cluster_shape_fields(spec));
    Json::obj(pairs)
}

fn order_to_json(order: &OrderPolicy) -> Json {
    match *order {
        OrderPolicy::Wfp { exponent } => Json::obj(vec![(
            "wfp",
            Json::obj(vec![("exponent", Json::F64(exponent))]),
        )]),
        OrderPolicy::BatchBudget { hold_s } => Json::obj(vec![(
            "batch-budget",
            Json::obj(vec![("hold_s", Json::F64(hold_s))]),
        )]),
        _ => Json::Str(order.name().into()),
    }
}

fn memory_to_json(memory: &MemoryPolicy) -> Json {
    match *memory {
        MemoryPolicy::SlowdownAware { max_dilation } => Json::obj(vec![(
            "slowdown-aware",
            Json::obj(vec![("max_dilation", Json::F64(max_dilation))]),
        )]),
        MemoryPolicy::LaxityAware { max_dilation } => Json::obj(vec![(
            "laxity-aware",
            Json::obj(vec![("max_dilation", Json::F64(max_dilation))]),
        )]),
        _ => Json::Str(memory.name().into()),
    }
}

fn slowdown_to_json(model: &SlowdownModel) -> Json {
    match *model {
        SlowdownModel::None => Json::Str("none".into()),
        SlowdownModel::Linear { penalty } => Json::obj(vec![(
            "linear",
            Json::obj(vec![("penalty", Json::F64(penalty))]),
        )]),
        SlowdownModel::Saturating { penalty, curvature } => Json::obj(vec![(
            "saturating",
            Json::obj(vec![
                ("penalty", Json::F64(penalty)),
                ("curvature", Json::F64(curvature)),
            ]),
        )]),
        SlowdownModel::Contention { penalty, gamma } => Json::obj(vec![(
            "contention",
            Json::obj(vec![
                ("penalty", Json::F64(penalty)),
                ("gamma", Json::F64(gamma)),
            ]),
        )]),
    }
}

fn scheduler_to_json(cfg: &SchedulerConfig) -> Json {
    let mut pairs = vec![
        ("order", order_to_json(&cfg.order)),
        ("backfill", Json::Str(cfg.backfill.name().into())),
        ("memory", memory_to_json(&cfg.memory)),
        ("slowdown", slowdown_to_json(&cfg.slowdown)),
        ("inflate_walltime", Json::Bool(cfg.inflate_walltime)),
    ];
    // Admission/preemption keys appear only when non-default, so documents
    // written before these knobs existed stay byte-identical.
    if cfg.admission != AdmissionPolicy::AdmitAll {
        pairs.push(("admission", Json::Str(cfg.admission.name().into())));
    }
    if let PreemptPolicy::LaxityCheckpoint { overhead_s } = cfg.preempt {
        pairs.push((
            "preempt",
            Json::obj(vec![(
                "laxity-checkpoint",
                Json::obj(vec![("overhead_s", Json::UInt(overhead_s))]),
            )]),
        ));
    }
    Json::obj(pairs)
}

fn fault_action_to_json(at: SimTime, action: &FaultAction) -> Json {
    let node = |tag: &str, n: NodeId| {
        Json::obj(vec![(
            tag,
            Json::obj(vec![("node", Json::UInt(n.0 as u64))]),
        )])
    };
    let act = match *action {
        FaultAction::NodeFail(n) => node("node-fail", n),
        FaultAction::NodeRepair(n) => node("node-repair", n),
        FaultAction::DrainStart(n) => node("drain-start", n),
        FaultAction::DrainEnd(n) => node("drain-end", n),
        FaultAction::PoolDegrade { pool, factor } => Json::obj(vec![(
            "pool-degrade",
            Json::obj(vec![
                ("pool", Json::UInt(pool.0 as u64)),
                ("factor", Json::F64(factor)),
            ]),
        )]),
        FaultAction::PoolRepair(p) => Json::obj(vec![(
            "pool-repair",
            Json::obj(vec![("pool", Json::UInt(p.0 as u64))]),
        )]),
    };
    Json::obj(vec![("at_us", Json::UInt(at.as_micros())), ("action", act)])
}

fn fault_generator_to_json(g: &FaultGenerator) -> Json {
    Json::obj(vec![
        ("seed", Json::UInt(g.seed)),
        ("horizon_s", Json::UInt(g.horizon_s)),
        ("node_mtbf_s", Json::UInt(g.node_mtbf_s)),
        ("node_repair_s", Json::UInt(g.node_repair_s)),
        ("drain_interval_s", Json::UInt(g.drain_interval_s)),
        ("drain_duration_s", Json::UInt(g.drain_duration_s)),
        (
            "pool_degrade_interval_s",
            Json::UInt(g.pool_degrade_interval_s),
        ),
        (
            "pool_degrade_duration_s",
            Json::UInt(g.pool_degrade_duration_s),
        ),
        ("pool_degrade_factor", Json::F64(g.pool_degrade_factor)),
    ])
}

fn fault_to_json(f: &FaultSpec) -> Json {
    let interrupt = match f.interrupt {
        InterruptPolicy::Resubmit => Json::Str("resubmit".into()),
        InterruptPolicy::Checkpoint { overhead_s } => Json::obj(vec![(
            "checkpoint",
            Json::obj(vec![("overhead_s", Json::UInt(overhead_s))]),
        )]),
    };
    let mut pairs = vec![(
        "schedule",
        Json::Arr(
            f.schedule
                .iter()
                .map(|(at, action)| fault_action_to_json(*at, action))
                .collect(),
        ),
    )];
    if let Some(g) = &f.generator {
        pairs.push(("generator", fault_generator_to_json(g)));
    }
    pairs.push(("interrupt", interrupt));
    pairs.push(("max_resubmits", Json::UInt(f.max_resubmits as u64)));
    Json::obj(pairs)
}

fn service_to_json(s: &ServiceSpec) -> Json {
    let process = match s.process {
        ArrivalProcess::Poisson => Json::Str("poisson".into()),
        ArrivalProcess::Daily { peak_to_trough } => Json::obj(vec![(
            "daily",
            Json::obj(vec![("peak_to_trough", Json::F64(peak_to_trough))]),
        )]),
        ArrivalProcess::Mmpp {
            burst_ratio,
            mean_dwell_secs,
        } => Json::obj(vec![(
            "mmpp",
            Json::obj(vec![
                ("burst_ratio", Json::F64(burst_ratio)),
                ("mean_dwell_secs", Json::F64(mean_dwell_secs)),
            ]),
        )]),
    };
    let load = match s.load {
        ServiceLoad::Rate {
            mean_interarrival_secs,
        } => Json::obj(vec![(
            "rate",
            Json::obj(vec![(
                "mean_interarrival_secs",
                Json::F64(mean_interarrival_secs),
            )]),
        )]),
        ServiceLoad::Utilization { target } => Json::obj(vec![(
            "utilization",
            Json::obj(vec![("target", Json::F64(target))]),
        )]),
    };
    let mut pairs = Vec::new();
    if let Some(preset) = s.preset {
        pairs.push(("preset", Json::Str(preset.name().into())));
    }
    pairs.push(("process", process));
    pairs.push(("load", load));
    match s.horizon {
        Some(Horizon::Jobs(n)) => pairs.push(("horizon", Json::obj(vec![("jobs", Json::UInt(n))]))),
        Some(Horizon::Duration(d)) => pairs.push((
            "horizon",
            Json::obj(vec![("secs", Json::UInt(d.as_secs()))]),
        )),
        None => {}
    }
    pairs.push(("warmup_s", Json::UInt(s.warmup_s)));
    if let Some(slo) = s.slo_wait_s {
        pairs.push(("slo_wait_s", Json::F64(slo)));
    }
    if let Some((lo, hi)) = s.slo_budget_factor {
        pairs.push((
            "slo_budget_factor",
            Json::obj(vec![("min", Json::F64(lo)), ("max", Json::F64(hi))]),
        ));
    }
    if let Some(seed) = s.seed {
        pairs.push(("seed", Json::UInt(seed)));
    }
    Json::obj(pairs)
}

fn site_to_json(s: &SiteSpec) -> Json {
    let mut pairs = vec![("label", Json::Str(s.label.clone()))];
    // Pinned fields only: an unpinned site serializes as a bare label,
    // keeping "inherit the cell's axes" the visible default.
    if let Some(c) = &s.cluster {
        pairs.push(("cluster", Json::obj(cluster_shape_fields(c))));
    }
    if let Some(sc) = &s.scheduler {
        pairs.push(("scheduler", scheduler_to_json(sc)));
    }
    Json::obj(pairs)
}

fn fleet_to_json(f: &FleetSpec) -> Json {
    Json::obj(vec![
        ("epoch_s", Json::F64(f.epoch_s)),
        ("policy", Json::Str(f.policy.name().into())),
        (
            "sites",
            Json::Arr(f.sites.iter().map(site_to_json).collect()),
        ),
    ])
}

fn scenario_to_json(s: &Scenario) -> Json {
    match s {
        Scenario::Faults(f) => Json::obj(vec![("faults", fault_to_json(f))]),
        Scenario::Service(s) => Json::obj(vec![("service", service_to_json(s))]),
        Scenario::Fleet(f) => Json::obj(vec![("fleet", fleet_to_json(f))]),
    }
}

pub(super) fn spec_to_json(spec: &ExperimentSpec) -> Result<String, SimError> {
    let workload = match &spec.workload {
        WorkloadSource::Preset { preset, jobs } => Json::obj(vec![(
            "preset",
            Json::obj(vec![
                ("system", Json::Str(preset.name().into())),
                ("jobs", Json::UInt(*jobs as u64)),
            ]),
        )]),
        WorkloadSource::Fixed(_) => return Err(SimError::parse(
            "fixed-trace experiments are not JSON-serializable (the trace lives outside the spec)",
        )),
    };
    let doc = Json::obj(vec![
        ("name", Json::Str(spec.name.clone())),
        ("workload", workload),
        (
            "clusters",
            Json::Arr(
                spec.clusters
                    .iter()
                    .map(|(label, c)| cluster_to_json(label, c))
                    .collect(),
            ),
        ),
        (
            "loads",
            Json::Arr(spec.loads.iter().map(|&l| Json::F64(l)).collect()),
        ),
        (
            "seeds",
            Json::Arr(spec.seeds.iter().map(|&s| Json::UInt(s)).collect()),
        ),
        (
            "schedulers",
            Json::Arr(spec.schedulers.iter().map(scheduler_to_json).collect()),
        ),
        (
            "scenarios",
            Json::Arr(spec.scenarios.iter().map(scenario_to_json).collect()),
        ),
        ("enforce_walltime", Json::Bool(spec.enforce_walltime)),
        ("check_invariants", Json::Bool(spec.check_invariants)),
    ]);
    Ok(doc.to_string_pretty())
}

// -------------------------------------------------------------- from json

fn pool_from_json(v: &Json) -> Result<PoolTopology, JsonError> {
    let (tag, data) = tagged(v)?;
    match tag {
        "none" => Ok(PoolTopology::None),
        "per-rack" => Ok(PoolTopology::PerRack {
            mib_per_rack: payload(data, tag)?.expect_key("mib_per_rack")?.to_u64()?,
        }),
        "global" => Ok(PoolTopology::Global {
            mib: payload(data, tag)?.expect_key("mib")?.to_u64()?,
        }),
        other => Err(shape(format!("unknown pool topology {other:?}"))),
    }
}

fn cluster_shape_from_json(v: &Json) -> Result<ClusterSpec, JsonError> {
    let node = NodeSpec::try_new(
        v.expect_key("cores")?.to_u64()? as u32,
        v.expect_key("node_mem_mib")?.to_u64()?,
    )
    .map_err(|e| shape(e.to_string()))?;
    ClusterSpec::try_new(
        v.expect_key("racks")?.to_u64()? as u32,
        v.expect_key("nodes_per_rack")?.to_u64()? as u32,
        node,
        pool_from_json(v.expect_key("pool")?)?,
    )
    .map_err(|e| shape(e.to_string()))
}

fn cluster_from_json(v: &Json) -> Result<(String, ClusterSpec), JsonError> {
    let label = v.expect_key("label")?.to_str()?.to_string();
    Ok((label, cluster_shape_from_json(v)?))
}

fn order_from_json(v: &Json) -> Result<OrderPolicy, JsonError> {
    let (tag, data) = tagged(v)?;
    match tag {
        "fcfs" => Ok(OrderPolicy::Fcfs),
        "sjf" => Ok(OrderPolicy::Sjf),
        "largest-first" => Ok(OrderPolicy::LargestFirst),
        "edf" => Ok(OrderPolicy::Edf),
        "llf" => Ok(OrderPolicy::LeastLaxity),
        "wfp" => Ok(OrderPolicy::Wfp {
            exponent: payload(data, tag)?.expect_key("exponent")?.to_f64()?,
        }),
        "batch-budget" => Ok(OrderPolicy::BatchBudget {
            hold_s: payload(data, tag)?.expect_key("hold_s")?.to_f64()?,
        }),
        other => Err(shape(format!("unknown order policy {other:?}"))),
    }
}

fn backfill_from_json(v: &Json) -> Result<BackfillPolicy, JsonError> {
    match v.to_str()? {
        "none" => Ok(BackfillPolicy::None),
        "easy" => Ok(BackfillPolicy::Easy),
        "conservative" => Ok(BackfillPolicy::Conservative),
        other => Err(shape(format!("unknown backfill policy {other:?}"))),
    }
}

fn memory_from_json(v: &Json) -> Result<MemoryPolicy, JsonError> {
    let (tag, data) = tagged(v)?;
    match tag {
        "local-only" => Ok(MemoryPolicy::LocalOnly),
        "pool-ff" => Ok(MemoryPolicy::PoolFirstFit),
        "pool-bf" => Ok(MemoryPolicy::PoolBestFit),
        "slowdown-aware" => Ok(MemoryPolicy::SlowdownAware {
            max_dilation: payload(data, tag)?.expect_key("max_dilation")?.to_f64()?,
        }),
        "laxity-aware" => Ok(MemoryPolicy::LaxityAware {
            max_dilation: payload(data, tag)?.expect_key("max_dilation")?.to_f64()?,
        }),
        other => Err(shape(format!("unknown memory policy {other:?}"))),
    }
}

fn slowdown_from_json(v: &Json) -> Result<SlowdownModel, JsonError> {
    let (tag, data) = tagged(v)?;
    match tag {
        "none" => Ok(SlowdownModel::None),
        "linear" => Ok(SlowdownModel::Linear {
            penalty: payload(data, tag)?.expect_key("penalty")?.to_f64()?,
        }),
        "saturating" => {
            let p = payload(data, tag)?;
            Ok(SlowdownModel::Saturating {
                penalty: p.expect_key("penalty")?.to_f64()?,
                curvature: p.expect_key("curvature")?.to_f64()?,
            })
        }
        "contention" => {
            let p = payload(data, tag)?;
            Ok(SlowdownModel::Contention {
                penalty: p.expect_key("penalty")?.to_f64()?,
                gamma: p.expect_key("gamma")?.to_f64()?,
            })
        }
        other => Err(shape(format!("unknown slowdown model {other:?}"))),
    }
}

fn admission_from_json(v: &Json) -> Result<AdmissionPolicy, JsonError> {
    let name = v.to_str()?;
    AdmissionPolicy::from_name(name)
        .ok_or_else(|| shape(format!("unknown admission policy {name:?}")))
}

fn preempt_from_json(v: &Json) -> Result<PreemptPolicy, JsonError> {
    let (tag, data) = tagged(v)?;
    match tag {
        "never" => Ok(PreemptPolicy::Never),
        "laxity-checkpoint" => Ok(PreemptPolicy::LaxityCheckpoint {
            overhead_s: payload(data, tag)?.expect_key("overhead_s")?.to_u64()?,
        }),
        other => Err(shape(format!("unknown preempt policy {other:?}"))),
    }
}

fn scheduler_from_json(v: &Json) -> Result<SchedulerConfig, JsonError> {
    Ok(SchedulerConfig {
        order: order_from_json(v.expect_key("order")?)?,
        backfill: backfill_from_json(v.expect_key("backfill")?)?,
        memory: memory_from_json(v.expect_key("memory")?)?,
        slowdown: slowdown_from_json(v.expect_key("slowdown")?)?,
        inflate_walltime: v.expect_key("inflate_walltime")?.to_bool()?,
        // Absent in pre-admission documents: default.
        admission: match v.get("admission") {
            Some(a) => admission_from_json(a)?,
            None => AdmissionPolicy::AdmitAll,
        },
        preempt: match v.get("preempt") {
            Some(p) => preempt_from_json(p)?,
            None => PreemptPolicy::Never,
        },
    })
}

fn fault_action_from_json(v: &Json) -> Result<(SimTime, FaultAction), JsonError> {
    let at = SimTime::from_micros(v.expect_key("at_us")?.to_u64()?);
    let (tag, data) = tagged(v.expect_key("action")?)?;
    let node = |data: Option<&Json>| -> Result<NodeId, JsonError> {
        Ok(NodeId(
            payload(data, tag)?.expect_key("node")?.to_u64()? as u32
        ))
    };
    let action = match tag {
        "node-fail" => FaultAction::NodeFail(node(data)?),
        "node-repair" => FaultAction::NodeRepair(node(data)?),
        "drain-start" => FaultAction::DrainStart(node(data)?),
        "drain-end" => FaultAction::DrainEnd(node(data)?),
        "pool-degrade" => {
            let p = payload(data, tag)?;
            FaultAction::PoolDegrade {
                pool: PoolId(p.expect_key("pool")?.to_u64()? as u32),
                factor: p.expect_key("factor")?.to_f64()?,
            }
        }
        "pool-repair" => FaultAction::PoolRepair(PoolId(
            payload(data, tag)?.expect_key("pool")?.to_u64()? as u32,
        )),
        other => return Err(shape(format!("unknown fault action {other:?}"))),
    };
    Ok((at, action))
}

fn fault_generator_from_json(v: &Json) -> Result<FaultGenerator, JsonError> {
    Ok(FaultGenerator {
        seed: v.expect_key("seed")?.to_u64()?,
        horizon_s: v.expect_key("horizon_s")?.to_u64()?,
        node_mtbf_s: v.expect_key("node_mtbf_s")?.to_u64()?,
        node_repair_s: v.expect_key("node_repair_s")?.to_u64()?,
        drain_interval_s: v.expect_key("drain_interval_s")?.to_u64()?,
        drain_duration_s: v.expect_key("drain_duration_s")?.to_u64()?,
        pool_degrade_interval_s: v.expect_key("pool_degrade_interval_s")?.to_u64()?,
        pool_degrade_duration_s: v.expect_key("pool_degrade_duration_s")?.to_u64()?,
        pool_degrade_factor: v.expect_key("pool_degrade_factor")?.to_f64()?,
    })
}

fn fault_from_json(v: &Json) -> Result<FaultSpec, JsonError> {
    let interrupt = match tagged(v.expect_key("interrupt")?)? {
        ("resubmit", _) => InterruptPolicy::Resubmit,
        ("checkpoint", data) => InterruptPolicy::Checkpoint {
            overhead_s: payload(data, "checkpoint")?
                .expect_key("overhead_s")?
                .to_u64()?,
        },
        (other, _) => return Err(shape(format!("unknown interrupt policy {other:?}"))),
    };
    Ok(FaultSpec {
        schedule: v
            .expect_key("schedule")?
            .to_arr()?
            .iter()
            .map(fault_action_from_json)
            .collect::<Result<_, _>>()?,
        generator: match v.get("generator") {
            Some(g) => Some(fault_generator_from_json(g)?),
            None => None,
        },
        interrupt,
        max_resubmits: v.expect_key("max_resubmits")?.to_u64()? as u32,
    })
}

fn service_from_json(v: &Json) -> Result<ServiceSpec, JsonError> {
    let process = match tagged(v.expect_key("process")?)? {
        ("poisson", _) => ArrivalProcess::Poisson,
        ("daily", data) => ArrivalProcess::Daily {
            peak_to_trough: payload(data, "daily")?
                .expect_key("peak_to_trough")?
                .to_f64()?,
        },
        ("mmpp", data) => {
            let p = payload(data, "mmpp")?;
            ArrivalProcess::Mmpp {
                burst_ratio: p.expect_key("burst_ratio")?.to_f64()?,
                mean_dwell_secs: p.expect_key("mean_dwell_secs")?.to_f64()?,
            }
        }
        (other, _) => return Err(shape(format!("unknown arrival process {other:?}"))),
    };
    let load = match tagged(v.expect_key("load")?)? {
        ("rate", data) => ServiceLoad::Rate {
            mean_interarrival_secs: payload(data, "rate")?
                .expect_key("mean_interarrival_secs")?
                .to_f64()?,
        },
        ("utilization", data) => ServiceLoad::Utilization {
            target: payload(data, "utilization")?
                .expect_key("target")?
                .to_f64()?,
        },
        (other, _) => return Err(shape(format!("unknown service load control {other:?}"))),
    };
    let horizon = match v.get("horizon") {
        None => None,
        Some(h) => Some(match tagged(h)? {
            ("jobs", data) => Horizon::Jobs(payload(data, "jobs")?.to_u64()?),
            ("secs", data) => {
                Horizon::Duration(SimDuration::from_secs(payload(data, "secs")?.to_u64()?))
            }
            (other, _) => return Err(shape(format!("unknown horizon kind {other:?}"))),
        }),
    };
    Ok(ServiceSpec {
        preset: match v.get("preset") {
            Some(p) => Some(preset_from_name(p.to_str()?)?),
            None => None,
        },
        process,
        load,
        horizon,
        warmup_s: v.expect_key("warmup_s")?.to_u64()?,
        slo_wait_s: match v.get("slo_wait_s") {
            Some(s) => Some(s.to_f64()?),
            None => None,
        },
        slo_budget_factor: match v.get("slo_budget_factor") {
            Some(b) => Some((
                b.expect_key("min")?.to_f64()?,
                b.expect_key("max")?.to_f64()?,
            )),
            None => None,
        },
        seed: match v.get("seed") {
            Some(s) => Some(s.to_u64()?),
            None => None,
        },
    })
}

fn site_from_json(v: &Json) -> Result<SiteSpec, JsonError> {
    Ok(SiteSpec {
        label: v.expect_key("label")?.to_str()?.to_string(),
        cluster: match v.get("cluster") {
            Some(c) => Some(cluster_shape_from_json(c)?),
            None => None,
        },
        scheduler: match v.get("scheduler") {
            Some(s) => Some(scheduler_from_json(s)?),
            None => None,
        },
    })
}

fn fleet_from_json(v: &Json) -> Result<FleetSpec, JsonError> {
    let policy_name = v.expect_key("policy")?.to_str()?;
    Ok(FleetSpec {
        sites: v
            .expect_key("sites")?
            .to_arr()?
            .iter()
            .map(site_from_json)
            .collect::<Result<_, _>>()?,
        epoch_s: v.expect_key("epoch_s")?.to_f64()?,
        policy: MetaPolicyKind::parse(policy_name)
            .ok_or_else(|| shape(format!("unknown meta policy {policy_name:?}")))?,
    })
}

fn preset_from_name(name: &str) -> Result<SystemPreset, JsonError> {
    SystemPreset::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| shape(format!("unknown system preset {name:?}")))
}

fn scenario_from_json(v: &Json) -> Result<Scenario, JsonError> {
    let (tag, data) = tagged(v)?;
    scenario_of_kind(tag, payload(data, tag)?)
}

fn scenario_of_kind(kind: &str, data: &Json) -> Result<Scenario, JsonError> {
    match kind {
        "faults" => Ok(Scenario::Faults(fault_from_json(data)?)),
        "service" => Ok(Scenario::Service(service_from_json(data)?)),
        "fleet" => Ok(Scenario::Fleet(fleet_from_json(data)?)),
        other => Err(shape(format!("unknown scenario kind {other:?}"))),
    }
}

/// The scenario axis of a document written before the axes merged, when
/// `faults`, `services` and `fleets` were crossed with each other (each
/// key optional; an absent or empty one meant the plain cell). Crossing
/// only ever worked with one kind holding real scenarios, so that kind's
/// list is the axis; with none, the first non-empty list is.
fn legacy_scenarios(doc: &Json) -> Result<Vec<Scenario>, SimError> {
    let mut lists = Vec::new();
    for (key, kind) in [
        ("faults", "faults"),
        ("services", "service"),
        ("fleets", "fleet"),
    ] {
        lists.push(match doc.get(key) {
            Some(v) => v
                .to_arr()?
                .iter()
                .map(|data| scenario_of_kind(kind, data))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        });
    }
    let real = |l: &&Vec<Scenario>| l.iter().any(|s| s.key_labels() != [None, None, None]);
    let mut active = lists.iter().filter(real);
    match (active.next(), active.next()) {
        (Some(_), Some(_)) => Err(SimError::spec(
            "fault, service and fleet scenarios do not combine in one cell (list them \
             under \"scenarios\" to run each as its own cells)",
        )),
        (Some(l), None) => Ok(l.clone()),
        (None, _) => Ok(lists
            .into_iter()
            .find(|l| !l.is_empty())
            .unwrap_or_default()),
    }
}

pub(super) fn spec_from_json(text: &str) -> Result<ExperimentSpec, SimError> {
    let doc = parse(text)?;
    let inner = || -> Result<ExperimentSpec, JsonError> {
        let (tag, data) = tagged(doc.expect_key("workload")?)?;
        let workload = match tag {
            "preset" => {
                let p = payload(data, tag)?;
                WorkloadSource::Preset {
                    preset: preset_from_name(p.expect_key("system")?.to_str()?)?,
                    jobs: p.expect_key("jobs")?.to_usize()?,
                }
            }
            other => return Err(shape(format!("unknown workload source {other:?}"))),
        };
        Ok(ExperimentSpec {
            name: doc.expect_key("name")?.to_str()?.to_string(),
            workload,
            clusters: doc
                .expect_key("clusters")?
                .to_arr()?
                .iter()
                .map(cluster_from_json)
                .collect::<Result<_, _>>()?,
            loads: doc
                .expect_key("loads")?
                .to_arr()?
                .iter()
                .map(Json::to_f64)
                .collect::<Result<_, _>>()?,
            seeds: doc
                .expect_key("seeds")?
                .to_arr()?
                .iter()
                .map(Json::to_u64)
                .collect::<Result<_, _>>()?,
            schedulers: doc
                .expect_key("schedulers")?
                .to_arr()?
                .iter()
                .map(scheduler_from_json)
                .collect::<Result<_, _>>()?,
            // Absent in documents written before any scenario existed:
            // those grids are plain, exactly what an empty axis means.
            scenarios: match doc.get("scenarios") {
                Some(s) => s
                    .to_arr()?
                    .iter()
                    .map(scenario_from_json)
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
            enforce_walltime: doc.expect_key("enforce_walltime")?.to_bool()?,
            check_invariants: doc.expect_key("check_invariants")?.to_bool()?,
        })
    };
    let mut spec = inner()?;
    let legacy = ["faults", "services", "fleets"]
        .iter()
        .any(|k| doc.get(k).is_some());
    if legacy {
        if doc.get("scenarios").is_some() {
            return Err(SimError::parse(
                "a spec lists either \"scenarios\" or the older \"faults\"/\"services\"/\
                 \"fleets\" keys, not both",
            ));
        }
        spec.scenarios = legacy_scenarios(&doc)?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::default_slowdown;
    use crate::ExperimentBuilder;

    fn full_spec() -> ExperimentSpec {
        ExperimentSpec::builder("round-trip")
            .preset(SystemPreset::MidCluster, 1500)
            .pools([
                PoolTopology::None,
                PoolTopology::PerRack {
                    mib_per_rack: 512 * 1024,
                },
                PoolTopology::Global { mib: 4096 * 1024 },
            ])
            .loads([0.7, 0.9, 1.1])
            .seeds([42, 43])
            .policy_suite(default_slowdown())
            .scheduler(
                dmhpc_sched::SchedulerBuilder::new()
                    .order(OrderPolicy::Wfp { exponent: 3.0 })
                    .backfill(BackfillPolicy::Conservative)
                    .memory(MemoryPolicy::SlowdownAware { max_dilation: 1.35 })
                    .slowdown(SlowdownModel::Contention {
                        penalty: 1.5,
                        gamma: 2.0,
                    })
                    .inflate_walltime(false)
                    .build(),
            )
            .fault(FaultSpec::none())
            .fault(
                FaultSpec::none()
                    .with_action(SimTime::from_secs(3600), FaultAction::NodeFail(NodeId(3)))
                    .with_action(SimTime::from_secs(7200), FaultAction::DrainStart(NodeId(5)))
                    .with_generator({
                        let mut g = FaultGenerator::quiet(9, 100_000);
                        g.node_mtbf_s = 20_000;
                        g.drain_interval_s = 40_000;
                        g
                    })
                    .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 120 })
                    .with_max_resubmits(3),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn spec_round_trips_exactly() {
        let spec = full_spec();
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.clusters, spec.clusters);
        assert_eq!(back.loads, spec.loads);
        assert_eq!(back.seeds, spec.seeds);
        assert_eq!(back.schedulers, spec.schedulers);
        assert_eq!(
            back.scenarios, spec.scenarios,
            "scenario axis round-trips exactly"
        );
        assert_eq!(back.enforce_walltime, spec.enforce_walltime);
        assert_eq!(back.check_invariants, spec.check_invariants);
        match (&back.workload, &spec.workload) {
            (
                WorkloadSource::Preset {
                    preset: a,
                    jobs: ja,
                },
                WorkloadSource::Preset {
                    preset: b,
                    jobs: jb,
                },
            ) => {
                assert_eq!(a, b);
                assert_eq!(ja, jb);
            }
            _ => panic!("workload source changed shape"),
        }
        // And a second trip is byte-identical (canonical form).
        assert_eq!(back.to_json().unwrap(), json);
    }

    #[test]
    fn compiled_grids_agree_after_round_trip() {
        let spec = full_spec();
        let back = ExperimentSpec::from_json(&spec.to_json().unwrap()).unwrap();
        let a = spec.compile().unwrap();
        let b = back.compile().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.config, y.config);
        }
    }

    #[test]
    fn service_axis_round_trips_exactly() {
        let spec = ExperimentSpec::builder("svc-trip")
            .preset(SystemPreset::HighThroughput, 40)
            .pool(PoolTopology::None)
            .seed(5)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .service(ServiceSpec::none())
            .service(
                ServiceSpec::open(SystemPreset::HighThroughput)
                    .with_process(ArrivalProcess::Mmpp {
                        burst_ratio: 1.8,
                        mean_dwell_secs: 1800.0,
                    })
                    .with_rate(45.0)
                    .with_horizon_jobs(2000)
                    .with_warmup_secs(3600)
                    .with_slo_wait_secs(900.0),
            )
            .service(
                ServiceSpec::open(SystemPreset::MidCluster)
                    .with_utilization(0.9)
                    .with_horizon_secs(86_400)
                    .with_seed(11),
            )
            .build()
            .unwrap();
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.scenarios, spec.scenarios);
        assert_eq!(back.to_json().unwrap(), json, "canonical form is stable");
        // And the compiled grids (with resolved stream seeds) agree.
        let a = spec.compile().unwrap();
        let b = back.compile().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.service, y.service);
        }
    }

    #[test]
    fn fleet_axis_round_trips_exactly() {
        let big = ClusterSpec::new(4, 16, NodeSpec::new(16, 256 * 1024), PoolTopology::None);
        let spec = ExperimentSpec::builder("fleet-trip")
            .preset(SystemPreset::HighThroughput, 40)
            .pool(PoolTopology::None)
            .seed(5)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fleet(FleetSpec::none())
            .fleet(FleetSpec::symmetric(
                3,
                300.0,
                MetaPolicyKind::LeastMemoryPressure,
            ))
            .fleet(
                FleetSpec {
                    sites: Vec::new(),
                    epoch_s: 120.0,
                    policy: MetaPolicyKind::RoundRobin,
                }
                .with_site("plain", None, None)
                .with_site(
                    "big",
                    Some(big),
                    Some(
                        dmhpc_sched::SchedulerBuilder::new()
                            .memory(MemoryPolicy::PoolBestFit)
                            .build(),
                    ),
                ),
            )
            .build()
            .unwrap();
        let json = spec.to_json().unwrap();
        let back = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(back.scenarios, spec.scenarios, "fleets round-trip exactly");
        assert_eq!(back.to_json().unwrap(), json, "canonical form is stable");
        let a = spec.compile().unwrap();
        let b = back.compile().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.fleet, y.fleet);
        }
    }

    #[test]
    fn pre_scenario_documents_parse_as_plain_grids() {
        // Documents written before any scenario existed have neither
        // "scenarios" nor the older per-kind keys; they must keep parsing
        // (as fault-free, closed, single-cluster grids).
        let old = r#"{
            "name": "legacy",
            "workload": {"preset": {"system": "htc-128", "jobs": 10}},
            "clusters": [{
                "label": "c0", "racks": 1, "nodes_per_rack": 4,
                "cores": 8, "node_mem_mib": 65536, "pool": "none"
            }],
            "loads": [],
            "seeds": [1],
            "schedulers": [{
                "order": "fcfs", "backfill": "easy", "memory": "local-only",
                "slowdown": "none", "inflate_walltime": true
            }],
            "enforce_walltime": true,
            "check_invariants": false
        }"#;
        let spec = ExperimentSpec::from_json(old).unwrap();
        assert!(spec.scenarios.is_empty());
        let key = &spec.compile().unwrap()[0].key;
        assert_eq!(
            (&key.fault, &key.service, &key.fleet),
            (&None, &None, &None)
        );
    }

    /// `base` written the way documents were before the scenario kinds
    /// shared one axis: `scenarios` replaced by per-kind keys.
    fn legacy_doc(base: &ExperimentSpec, keys: Vec<(&str, Json)>) -> String {
        let Json::Obj(mut pairs) = parse(&base.to_json().unwrap()).unwrap() else {
            panic!("a spec document is an object");
        };
        pairs.retain(|(k, _)| k != "scenarios");
        pairs.extend(keys.into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(pairs).to_string_pretty()
    }

    #[test]
    fn legacy_per_kind_documents_give_the_cells_they_crossed_to() {
        let base = || {
            ExperimentSpec::builder("legacy")
                .preset(SystemPreset::HighThroughput, 40)
                .pools([
                    PoolTopology::None,
                    PoolTopology::PerRack {
                        mib_per_rack: 384 * 1024,
                    },
                ])
                .seeds([1, 2])
                .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
        };
        let storm = FaultSpec::none().with_generator(FaultGenerator {
            node_mtbf_s: 8_000,
            ..FaultGenerator::quiet(5, 40_000)
        });
        let open = ServiceSpec::open(SystemPreset::HighThroughput).with_horizon_jobs(200);
        let plain = base().build().unwrap();
        let faults =
            |list: &[&FaultSpec]| Json::Arr(list.iter().map(|f| fault_to_json(f)).collect());
        let services =
            |list: &[&ServiceSpec]| Json::Arr(list.iter().map(|s| service_to_json(s)).collect());
        let none_f = FaultSpec::none();
        let none_s = ServiceSpec::none();
        let cases = [
            // One kind with a real scenario: its list is the axis.
            (
                vec![("faults", faults(&[&none_f, &storm]))],
                base().fault(FaultSpec::none()).fault(storm.clone()),
            ),
            // A none() list beside it crossed to nothing: one cell, not two.
            (
                vec![
                    ("faults", faults(&[&storm])),
                    ("services", services(&[&none_s])),
                ],
                base().fault(storm.clone()),
            ),
            (
                vec![
                    ("faults", faults(&[&none_f])),
                    ("services", services(&[&none_s])),
                ],
                base().fault(FaultSpec::none()),
            ),
            (
                vec![
                    ("faults", Json::Arr(Vec::new())),
                    ("services", services(&[&none_s, &open])),
                    ("fleets", Json::Arr(Vec::new())),
                ],
                base().service(ServiceSpec::none()).service(open.clone()),
            ),
        ];
        for (keys, want) in cases {
            let doc = legacy_doc(&plain, keys);
            let got = ExperimentSpec::from_json(&doc).unwrap();
            assert_eq!(
                got.cell_hashes().unwrap(),
                want.build().unwrap().cell_hashes().unwrap(),
                "{doc}"
            );
        }
        // Two kinds with real scenarios crossed in the older format; no
        // cell can hold both.
        let doc = legacy_doc(
            &plain,
            vec![
                ("faults", faults(&[&storm])),
                ("services", services(&[&open])),
            ],
        );
        let err = ExperimentSpec::from_json(&doc).unwrap_err();
        assert!(
            matches!(err, SimError::Spec { .. }) && err.to_string().contains("do not combine"),
            "{err}"
        );
        // Both forms in one document.
        let mixed = base().fault(storm).build().unwrap();
        let Json::Obj(mut pairs) = parse(&mixed.to_json().unwrap()).unwrap() else {
            panic!("a spec document is an object");
        };
        pairs.push(("fleets".to_string(), Json::Arr(Vec::new())));
        let err = ExperimentSpec::from_json(&Json::Obj(pairs).to_string_pretty()).unwrap_err();
        assert!(err.to_string().contains("not both"), "{err}");
    }

    #[test]
    fn fixed_traces_refuse_to_serialize() {
        let w = dmhpc_workload::Workload::from_jobs(vec![dmhpc_workload::JobBuilder::new(1)
            .nodes(1)
            .runtime_secs(5, 10)
            .mem_per_node(64)
            .build()]);
        let spec = ExperimentSpec::builder("trace")
            .fixed_workload(w)
            .cluster(
                "c",
                ClusterSpec::new(1, 2, NodeSpec::new(2, 1024), PoolTopology::None),
            )
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .build()
            .unwrap();
        assert!(matches!(spec.to_json(), Err(SimError::Parse { .. })));
    }

    #[test]
    fn pool_fault_actions_round_trip_on_pool_grids() {
        let spec = ExperimentSpec::builder("pool-faults")
            .preset(SystemPreset::MidCluster, 50)
            .pool(PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            })
            .seed(1)
            .scheduler(dmhpc_sched::SchedulerBuilder::new().build())
            .fault(
                FaultSpec::none()
                    .with_action(
                        SimTime::from_secs(100),
                        FaultAction::PoolDegrade {
                            pool: PoolId(0),
                            factor: 0.25,
                        },
                    )
                    .with_action(SimTime::from_secs(500), FaultAction::PoolRepair(PoolId(0))),
            )
            .build()
            .unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json().unwrap()).unwrap();
        assert_eq!(back.scenarios, spec.scenarios);
        // A no-pool cluster with a pool fault is rejected up front.
        let err = ExperimentBuilder::from_spec(spec)
            .pool(PoolTopology::None)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("pool domain"), "{err}");
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        for text in [
            "not json",
            r#"{"name": "x"}"#,
            r#"{"name": "x", "workload": {"preset": {"system": "who", "jobs": 5}},
                "clusters": [], "loads": [], "seeds": [1], "schedulers": [],
                "enforce_walltime": true, "check_invariants": false}"#,
        ] {
            let err = ExperimentSpec::from_json(text).unwrap_err();
            assert!(
                matches!(err, SimError::Parse { .. } | SimError::Spec { .. }),
                "{err}"
            );
        }
    }
}
