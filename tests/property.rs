//! Randomized invariant tests, driven by the workspace's own
//! deterministic PCG64 streams instead of an external property-testing
//! framework: each test fuzzes a fixed number of seeded cases, so failures
//! reproduce exactly by seed.

use dmhpc::des::{BinaryHeapQueue, CalendarQueue, EventQueue, Pcg64, SimDuration, SimTime};
use dmhpc::platform::{Cluster, ClusterSpec, MemoryAssignment, NodeSpec, PoolTopology};
use dmhpc::prelude::*;
use dmhpc::sim::scenarios::preset_cluster;
use dmhpc_metrics::JobOutcome;
use dmhpc_workload::{Job, JobId, Workload};

// ------------------------------------------------------------------ queues

/// Invariant 1: both pending-event sets are stable min-queues and agree
/// with each other on arbitrary interleavings of schedules and pops.
#[test]
fn heap_and_calendar_agree() {
    for case in 0..128u64 {
        let mut rng = Pcg64::new_stream(0xCAFE, case);
        let mut heap: BinaryHeapQueue<usize> = BinaryHeapQueue::new();
        let mut cal: CalendarQueue<usize> = CalendarQueue::new();
        let ops = 1 + rng.index(400);
        for i in 0..ops {
            if rng.chance(0.6) {
                let at = SimTime::from_micros(rng.bounded_u64(10_000));
                heap.schedule(at, i);
                cal.schedule(at, i);
            } else {
                // Dequeue times need not be monotone across interleaved
                // inserts of earlier events — only implementation agreement
                // is the invariant here.
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "implementations diverged (case {case})");
            }
            assert_eq!(heap.len(), cal.len());
        }
        // Drain: both empty in the same order.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b, "case {case}");
            if a.is_none() {
                break;
            }
        }
    }
}

/// Dequeue order is (time, insertion) — stability over random inputs.
#[test]
fn queue_drain_is_stable_sorted() {
    for case in 0..128u64 {
        let mut rng = Pcg64::new_stream(0xBEEF, case);
        let n = 1 + rng.index(300);
        let times: Vec<u64> = (0..n).map(|_| rng.bounded_u64(1_000)).collect();
        let mut q: BinaryHeapQueue<usize> = BinaryHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, i)) = q.pop() {
            out.push((t.as_micros(), i));
        }
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort();
        assert_eq!(out, expect, "case {case}");
    }
}

// ----------------------------------------------------------------- cluster

/// Invariant 2: arbitrary allocate/release sequences never corrupt the
/// ledger, and at the end everything is released.
#[test]
fn cluster_ledger_survives_random_churn() {
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xD00D, case);
        let mut cluster = Cluster::new(ClusterSpec::new(
            3,
            8,
            NodeSpec::new(16, 128),
            PoolTopology::PerRack { mib_per_rack: 256 },
        ));
        let mut active: Vec<u64> = Vec::new();
        let ops = 1 + rng.index(120);
        for _ in 0..ops {
            let lease = rng.bounded_u64(24);
            let nodes = 1 + rng.index(5);
            let remote = rng.bounded_u64(96);
            if active.contains(&lease) {
                cluster.release(lease).unwrap();
                active.retain(|&l| l != lease);
            } else if let Some(ids) = cluster.first_fit_nodes(nodes) {
                let a = MemoryAssignment::hybrid(ids, 64, remote);
                if cluster.can_allocate(&a).is_ok() {
                    cluster.allocate(lease, a).unwrap();
                    active.push(lease);
                }
            }
            assert!(cluster.verify_invariants().is_ok(), "case {case}");
        }
        for lease in active {
            cluster.release(lease).unwrap();
        }
        assert_eq!(cluster.lease_count(), 0);
        assert_eq!(cluster.free_nodes(), 24);
        assert_eq!(cluster.total_pool_used(), 0);
    }
}

/// Availability invariant 2b: arbitrary interleavings of allocation churn
/// and node state transitions never desynchronize the free-capacity
/// indexes, and out-of-service nodes never reenter them early.
#[test]
fn cluster_state_machine_survives_random_transitions() {
    use dmhpc::platform::{NodeId, NodeState};
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xFA11, case);
        let mut cluster = Cluster::new(ClusterSpec::new(
            2,
            8,
            NodeSpec::new(16, 128),
            PoolTopology::PerRack { mib_per_rack: 256 },
        ));
        let mut active: Vec<u64> = Vec::new();
        let ops = 1 + rng.index(200);
        for _ in 0..ops {
            match rng.index(6) {
                0 => {
                    let lease = rng.bounded_u64(24);
                    if !active.contains(&lease) {
                        if let Some(ids) = cluster.first_fit_nodes(1 + rng.index(3)) {
                            let a = MemoryAssignment::hybrid(ids, 32, rng.bounded_u64(64));
                            if cluster.can_allocate(&a).is_ok() {
                                cluster.allocate(lease, a).unwrap();
                                active.push(lease);
                            }
                        }
                    }
                }
                1 => {
                    if let Some(&lease) = active.first() {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                2 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.fail_node(node).unwrap();
                    // The engine contract: interrupt (release) any lease
                    // holding a node that leaves service.
                    if let Some(lease) = cluster.holder(node) {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                3 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.repair_node(node).unwrap();
                }
                4 => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.drain_node(node).unwrap();
                    if let Some(lease) = cluster.holder(node) {
                        cluster.release(lease).unwrap();
                        active.retain(|&l| l != lease);
                    }
                }
                _ => {
                    let node = NodeId(rng.index(16) as u32);
                    cluster.undrain_node(node).unwrap();
                }
            }
            cluster.verify_invariants().unwrap_or_else(|e| {
                panic!("case {case}: {e}");
            });
            // Free nodes are exactly the allocatable ones.
            for n in 0..16u32 {
                let node = NodeId(n);
                let expect =
                    cluster.holder(node).is_none() && cluster.node_state(node) == NodeState::Up;
                assert_eq!(cluster.is_free(node), expect, "case {case} node {n}");
            }
        }
        // Repair everything, release everything: machine whole again.
        for lease in active {
            cluster.release(lease).unwrap();
        }
        for n in 0..16u32 {
            cluster.undrain_node(NodeId(n)).unwrap();
            cluster.repair_node(NodeId(n)).unwrap();
        }
        assert_eq!(cluster.free_nodes(), 16);
        assert_eq!(cluster.available_nodes(), 16);
        cluster.verify_invariants().unwrap();
    }
}

// ------------------------------------------------------------------ engine

/// One random job: arrival, nodes, runtime, walltime multiple, per-node
/// memory, intensity.
fn random_job(rng: &mut Pcg64, id: u64, max_nodes: u32) -> Job {
    let runtime = 60 + rng.bounded_u64(20_000 - 60);
    Job {
        id: JobId(id),
        user: (id % 7) as u32,
        arrival: SimTime::from_secs(rng.bounded_u64(50_000)),
        nodes: 1 + rng.index(max_nodes as usize) as u32,
        walltime: SimDuration::from_secs(runtime * (1 + rng.bounded_u64(3))),
        runtime: SimDuration::from_secs(runtime),
        mem_per_node: 256 + rng.bounded_u64(400_000 - 256),
        intensity: rng.next_f64(),
        slo: None,
    }
}

fn random_workload(rng: &mut Pcg64, max_jobs: usize, max_nodes: u32) -> Workload {
    let n = 1 + rng.index(max_jobs);
    let jobs: Vec<Job> = (0..n)
        .map(|i| random_job(rng, i as u64, max_nodes))
        .collect();
    Workload::from_jobs(jobs)
}

/// Invariants 3 & 6 end to end on random workloads: causality holds, every
/// job is accounted for, completed jobs consume exactly their work, and the
/// cluster ends empty (checked mode panics otherwise).
#[test]
fn engine_invariants_on_random_workloads() {
    for case in 0..48u64 {
        let mut rng = Pcg64::new_stream(0xE4617E, case);
        let w = random_workload(&mut rng, 60, 32);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        );
        let memory = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
        ][rng.index(4)];
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(SlowdownModel::Saturating {
                penalty: 1.5,
                curvature: 3.0,
            })
            .build();
        let out = Simulation::new(SimConfig::new(cluster, sched).checked())
            .unwrap()
            .run(&w);
        assert_eq!(out.records.len(), w.len(), "case {case}");
        for r in &out.records {
            match r.outcome {
                JobOutcome::Rejected => assert!(r.start.is_none()),
                JobOutcome::Completed => {
                    let res = r.residence().unwrap();
                    let expect = r.job.runtime.scale(r.dilation_actual);
                    assert!(
                        res.as_micros().abs_diff(expect.as_micros()) <= 2,
                        "case {case}: work conservation: {res} vs {expect}"
                    );
                }
                JobOutcome::Killed => {
                    assert!(r.residence().unwrap() <= r.job.walltime.scale(2.0));
                }
                JobOutcome::Failed => {
                    panic!("case {case}: fault-free run produced a Failed job")
                }
            }
            if let Some(s) = r.start {
                assert!(s >= r.job.arrival);
            }
        }
        assert!(out.report.node_util <= 1.0 + 1e-9);
    }
}

/// Determinism (invariant 7): identical inputs give identical traces.
#[test]
fn engine_is_deterministic() {
    for case in 0..24u64 {
        let mut rng = Pcg64::new_stream(0xDE7E12, case);
        let w = random_workload(&mut rng, 40, 16);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::Global { mib: 1024 * 1024 },
        );
        let sched = SchedulerBuilder::new()
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let sim = Simulation::new(SimConfig::new(cluster, sched)).unwrap();
        let a = sim.run(&w);
        let b = sim.run(&w);
        assert_eq!(a.trace_hash, b.trace_hash, "case {case}");
        assert_eq!(a.passes, b.passes);
    }
}

/// A random fault scenario: some mix of failures, drains, and pool
/// degradations with a random interrupt policy and budget.
fn random_faults(rng: &mut Pcg64) -> dmhpc::sim::FaultSpec {
    use dmhpc::sim::{FaultGenerator, FaultSpec, InterruptPolicy};
    let mut gen =
        FaultGenerator::quiet(rng.bounded_u64(1 << 20), 50_000 + rng.bounded_u64(150_000));
    if rng.chance(0.8) {
        gen.node_mtbf_s = 5_000 + rng.bounded_u64(40_000);
        gen.node_repair_s = 500 + rng.bounded_u64(20_000);
    }
    if rng.chance(0.5) {
        gen.drain_interval_s = 20_000 + rng.bounded_u64(80_000);
        gen.drain_duration_s = 1_000 + rng.bounded_u64(30_000);
    }
    if rng.chance(0.5) {
        gen.pool_degrade_interval_s = 20_000 + rng.bounded_u64(100_000);
        gen.pool_degrade_duration_s = 1_000 + rng.bounded_u64(40_000);
        gen.pool_degrade_factor = rng.range_f64(0.2, 0.9);
    }
    let interrupt = if rng.chance(0.5) {
        InterruptPolicy::Resubmit
    } else {
        InterruptPolicy::Checkpoint {
            overhead_s: rng.bounded_u64(600),
        }
    };
    FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(interrupt)
        .with_max_resubmits(rng.index(4) as u32)
}

/// Fault-scenario invariants end to end on random workloads × random
/// scenarios, with per-batch checks on (checked mode asserts that no job
/// occupies a Down/Draining node and no pool exceeds its degraded
/// capacity after every event batch):
///
/// * every job is accounted for exactly once
///   (completed + killed + rejected + failed == submitted);
/// * every interruption ends in exactly one of {resubmission, terminal
///   failure}: `interruptions == resubmissions + failed-while-running`;
/// * resubmissions never exceed the per-job budget;
/// * identical inputs reproduce identical traces and fault counters.
#[test]
fn engine_fault_invariants_on_random_scenarios() {
    for case in 0..32u64 {
        let mut rng = Pcg64::new_stream(0xFA117E57, case);
        let w = random_workload(&mut rng, 50, 24);
        let faults = random_faults(&mut rng);
        let cluster = preset_cluster(
            SystemPreset::HighThroughput,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        );
        let memory = [
            MemoryPolicy::LocalOnly,
            MemoryPolicy::PoolFirstFit,
            MemoryPolicy::PoolBestFit,
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
        ][rng.index(4)];
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build();
        let sim = Simulation::new(SimConfig::new(cluster, sched).checked())
            .unwrap()
            .with_fault_spec(faults.clone())
            .unwrap();
        let out = sim.run(&w);

        assert_eq!(out.records.len(), w.len(), "case {case}");
        let r = &out.report;
        assert_eq!(
            r.completed + r.killed + r.rejected + r.failed,
            w.len(),
            "case {case}: every job accounted for exactly once"
        );
        let failed_running = out
            .records
            .iter()
            .filter(|rec| rec.outcome == JobOutcome::Failed && rec.start.is_some())
            .count() as u64;
        assert_eq!(
            out.faults.interruptions,
            out.faults.resubmissions + failed_running,
            "case {case}: each interruption → one resubmission xor one terminal failure"
        );
        assert!(
            out.faults.resubmissions <= out.faults.interruptions,
            "case {case}"
        );
        if out.faults.interruptions > 0 {
            assert!(out.faults.rework_s >= 0.0);
        }
        assert!(out.report.avail_util <= 1.0 + 1e-9, "case {case}");

        // Determinism under faults (trace + counters).
        let again = sim.run(&w);
        assert_eq!(out.trace_hash, again.trace_hash, "case {case}");
        assert_eq!(out.faults, again.faults, "case {case}");
        assert_eq!(out.passes, again.passes, "case {case}");
    }
}

// ---------------------------------------------------------------- workload

/// rescale_load hits its target for arbitrary workloads (within the
/// rounding of integer microsecond arrivals).
#[test]
fn rescale_load_is_exact() {
    let mut tested = 0u32;
    for case in 0..96u64 {
        let mut rng = Pcg64::new_stream(0x10AD, case);
        let n = 3 + rng.index(47);
        let jobs: Vec<Job> = (0..n).map(|i| random_job(&mut rng, i as u64, 8)).collect();
        let w = Workload::from_jobs(jobs);
        let target = rng.range_f64(0.2, 1.5);
        if w.arrival_span() <= SimDuration::from_secs(10) {
            continue;
        }
        tested += 1;
        let scaled = dmhpc::workload::transform::rescale_load(&w, 64, target);
        let achieved = scaled.offered_load(64);
        assert!(
            (achieved - target).abs() / target < 0.01,
            "case {case}: target {target} achieved {achieved}"
        );
    }
    assert!(
        tested >= 32,
        "most random workloads must exercise the check"
    );
}

/// Memory-preserving node capping (invariant 5 precondition).
#[test]
fn cap_nodes_preserves_footprint() {
    for case in 0..64u64 {
        let mut rng = Pcg64::new_stream(0xCA9, case);
        let w = random_workload(&mut rng, 40, 64);
        let cap = 1 + rng.index(31) as u32;
        let capped = dmhpc::workload::transform::cap_nodes(&w, cap);
        for (a, b) in w.iter().zip(capped.iter()) {
            assert!(b.nodes <= cap.max(a.nodes.min(cap)), "case {case}");
            // ceil rounding may only grow the total, never shrink it.
            assert!(b.total_mem() >= a.total_mem());
            assert!(b.total_mem() < a.total_mem() + b.nodes as u64);
        }
    }
}

// ------------------------------------------------------------ user inputs

/// Apply 1–4 random edits to `text`: a bit flip inside an ASCII byte, a
/// truncation, a short deletion, or an inserted JSON punctuation mark or
/// digit.
fn mutate(rng: &mut Pcg64, text: &str) -> String {
    const INSERTS: &[u8] = b"{}[]:,\"-.eE0123456789";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(4) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.index(7),
            1 => bytes.truncate(at),
            2 => {
                let end = (at + 1 + rng.index(8)).min(bytes.len());
                bytes.drain(at..end);
            }
            _ => bytes.insert(at, INSERTS[rng.index(INSERTS.len())]),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `parse` on `cases` mutations of each seed text; every outcome must
/// be `Ok` or a typed error, never a panic. Returns how many still parsed.
fn assert_no_panics<T, E>(
    what: &str,
    seeds: &[String],
    stream: u64,
    cases: u64,
    parse: impl Fn(&str) -> Result<T, E>,
) -> usize {
    let mut parsed = 0;
    for case in 0..cases {
        let mut rng = Pcg64::new_stream(stream, case);
        let input = mutate(&mut rng, &seeds[case as usize % seeds.len()]);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parse(&input).is_ok())) {
            Ok(ok) => parsed += ok as usize,
            Err(_) => panic!("{what} parser panicked on case {case}: {input:?}"),
        }
    }
    parsed
}

/// Corrupted spec JSON and trace lines come back as typed errors: 1,000
/// seeded mutations of each kind of input (four spec documents, one trace
/// line), 2,000 cases in all.
#[test]
fn mutated_user_inputs_are_typed_errors_not_panics() {
    let faults = ExperimentSpec::builder("fuzz-faults")
        .preset(SystemPreset::HighThroughput, 40)
        .pool(PoolTopology::PerRack {
            mib_per_rack: 384 * 1024,
        })
        .loads([0.7, 0.9])
        .policy_suite(SlowdownModel::Linear { penalty: 1.5 })
        .fault(FaultSpec::none())
        .fault(FaultSpec::none().with_generator(FaultGenerator {
            node_mtbf_s: 20_000,
            pool_degrade_interval_s: 40_000,
            ..FaultGenerator::quiet(3, 86_400)
        }))
        .build()
        .unwrap();
    let service = ExperimentSpec::builder("fuzz-service")
        .preset(SystemPreset::HighThroughput, 40)
        .pool(PoolTopology::Global { mib: 1024 * 1024 })
        .policy_suite(SlowdownModel::None)
        .service(
            ServiceSpec::open(SystemPreset::HighThroughput)
                .with_utilization(0.8)
                .with_horizon_jobs(200)
                .with_slo_budget_factor(1.5, 3.0),
        )
        .build()
        .unwrap();
    // One scenario axis holding all three kinds.
    let mixed = ExperimentSpec::builder("fuzz-mixed")
        .preset(SystemPreset::HighThroughput, 40)
        .pool(PoolTopology::None)
        .seeds([1, 2])
        .policy_suite(SlowdownModel::None)
        .fault(FaultSpec::none().with_action(
            SimTime::from_secs(3_600),
            FaultAction::NodeFail(dmhpc::platform::NodeId(2)),
        ))
        .service(
            ServiceSpec::open(SystemPreset::HighThroughput)
                .with_utilization(0.8)
                .with_horizon_jobs(200),
        )
        .fleet(FleetSpec::symmetric(2, 300.0, MetaPolicyKind::RoundRobin))
        .build()
        .unwrap();
    // A document written when faults, services and fleets were separate
    // crossed axes.
    let legacy = r#"{"name": "fuzz-legacy",
        "workload": {"preset": {"system": "htc-128", "jobs": 40}},
        "clusters": [{"label": "c0", "racks": 1, "nodes_per_rack": 4, "cores": 8,
            "node_mem_mib": 65536, "pool": {"per-rack": {"mib_per_rack": 393216}}}],
        "loads": [0.8], "seeds": [1, 2],
        "schedulers": [{"order": "fcfs", "backfill": "easy", "memory": "pool-bf",
            "slowdown": "none", "inflate_walltime": true}],
        "faults": [
            {"schedule": [], "interrupt": "resubmit", "max_resubmits": 1},
            {"schedule": [{"at_us": 3600000000, "action": {"node-fail": {"node": 2}}}],
             "interrupt": {"checkpoint": {"overhead_s": 120}}, "max_resubmits": 2}],
        "services": [{"process": "poisson", "load": {"utilization": {"target": 0.8}},
            "warmup_s": 0}],
        "fleets": [],
        "enforce_walltime": true, "check_invariants": false}"#;
    let specs = [
        faults.to_json().unwrap(),
        service.to_json().unwrap(),
        mixed.to_json().unwrap(),
        legacy.to_string(),
    ];
    for spec in &specs {
        ExperimentSpec::from_json(spec).unwrap();
    }
    let spec_parsed = assert_no_panics("spec JSON", &specs, 0xF022, 1_000, |text| {
        ExperimentSpec::from_json(text)
    });

    let lines =
        [r#"{"t_us":25000000,"kind":"start","job":5,"nodes":4,"dilation":1.25}"#.to_string()];
    dmhpc::sim::observe::parse_trace_line(&lines[0]).unwrap();
    let line_parsed = assert_no_panics("trace line", &lines, 0x11E, 1_000, |line| {
        dmhpc::sim::observe::parse_trace_line(line)
    });

    // Some mutations keep the input valid (a flipped digit, say); most
    // must not, or the mutator is not reaching the parsers' error paths.
    for (what, parsed) in [("spec", spec_parsed), ("trace line", line_parsed)] {
        assert!(
            parsed < 900,
            "{what}: {parsed} of 1000 mutations still parsed"
        );
    }
}

/// Corrupted SWF traces come back as typed line errors: 1,000 seeded
/// mutations of a small trace and of a line whose submit time sits one
/// digit short of the clock's range, so inserted digits overflow it.
#[test]
fn mutated_swf_traces_are_typed_errors_not_panics() {
    let cfg = dmhpc::workload::swf::SwfConfig {
        cores_per_node: 4,
        ..Default::default()
    };
    let parse = |text: &str| dmhpc::workload::swf::parse_str(text, &cfg);
    let traces = [
        "; Version: 2.2\n; MaxNodes: 64\n\
         1 0 10 3600 128 -1 2097152 128 7200 -1 1 3 1 1 1 1 -1 -1\n\
         2 60 -1 1800 64 -1 -1 64 3600 1048576 1 4 1 1 1 1 -1 -1\n"
            .to_string(),
        "7 9999999999999 -1 999999999999 8 -1 65536 8 9999999999999 -1 1 2 -1 -1 -1 -1 -1 -1\n"
            .to_string(),
    ];
    for trace in &traces {
        parse(trace).unwrap();
    }
    let parsed = assert_no_panics("SWF", &traces, 0x5EF, 1_000, parse);
    assert!(parsed < 900, "{parsed} of 1000 mutations still parsed");
}

/// A one-cell grid small enough to re-simulate a thousand times.
const TINY_SPEC: &str = r#"{"name": "fuzz-cache",
 "workload": {"preset": {"system": "htc-128", "jobs": 6}},
 "clusters": [{"label": "c0", "racks": 1, "nodes_per_rack": 4, "cores": 8,
     "node_mem_mib": 65536, "pool": {"per-rack": {"mib_per_rack": 131072}}}],
 "loads": [0.8], "seeds": [1],
 "schedulers": [{"order": "fcfs", "backfill": "easy", "memory": "pool-bf",
     "slowdown": "none", "inflate_walltime": true}],
 "enforce_walltime": true, "check_invariants": false}"#;

/// Corrupted cache documents never panic: each of 1,000 seeded mutations
/// of a cell's stored summary, written over the cell's file, loads as a
/// hit that exports the cold run's CSV byte for byte, or is a miss that
/// re-simulates the cell and rewrites its file. Documents of the two
/// earlier formats, written for this very cell key, are misses.
#[test]
fn mutated_cache_documents_hit_or_resimulate() {
    let spec = ExperimentSpec::from_json(TINY_SPEC).unwrap();
    let dir = std::env::temp_dir().join(format!("dmhpc-fuzz-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let runner = ExperimentRunner::with_threads(1).cache_dir(&dir).unwrap();
    let cold = runner.run(&spec).unwrap();
    assert_eq!(cold.stats().simulated, 1);
    let cold_csv = cold.to_csv();
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let summary = std::fs::read_to_string(&path).unwrap();

    // Every warm run either hits and exports the cold bytes, or
    // re-simulates and stores the same summary again. Returns whether it
    // hit.
    let warm = |text: &str| -> bool {
        std::fs::write(&path, text).unwrap();
        let results = runner.run(&spec).unwrap();
        let (hits, simulated) = (results.stats().cache_hits, results.stats().simulated);
        assert_eq!(hits + simulated, 1);
        let csv = results.to_csv();
        let _ = results.to_json();
        if hits == 1 {
            assert_eq!(csv, cold_csv, "a hit exports the cold run's bytes");
        } else {
            assert_eq!(std::fs::read_to_string(&path).unwrap(), summary);
        }
        hits == 1
    };
    assert!(warm(&summary));
    let parsed = assert_no_panics(
        "cache document",
        std::slice::from_ref(&summary),
        0xCAC4E,
        1_000,
        |text| {
            warm(text);
            let body = text.split_once('\n').map_or(text, |(_, body)| body);
            dmhpc_metrics::json::parse(body).map(drop)
        },
    );
    // Some mutations leave the summary line valid JSON, so only the digest
    // tells them from the stored bytes; others do not parse at all.
    assert!(
        0 < parsed && parsed < 1_000,
        "{parsed} of 1000 mutations still parse"
    );

    // Format 1 stored the whole output for this same cell key; format 2
    // stored today's summary line without the digest header.
    for (format, text) in [
        (1, include_str!("fixtures/cell-format1.json")),
        (2, include_str!("fixtures/cell-format2.json")),
    ] {
        let key = dmhpc_metrics::json::parse(text)
            .unwrap()
            .expect_key("cell_hash")
            .unwrap()
            .to_u64()
            .unwrap();
        assert_eq!(key, spec.cell_hashes().unwrap()[0].1);
        assert!(!warm(text), "a format-{format} document is a miss");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
