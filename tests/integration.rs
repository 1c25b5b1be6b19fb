//! Cross-crate integration tests: full simulations through the public API.

use dmhpc::prelude::*;
use dmhpc::sim::scenarios::{default_slowdown, policy_suite, preset_cluster, preset_workload};
use dmhpc::workload::swf::{parse_str, write_string, SwfConfig};
use dmhpc::workload::transform;
use dmhpc_metrics::JobOutcome;

fn per_rack(gib: u64) -> PoolTopology {
    PoolTopology::PerRack {
        mib_per_rack: gib * 1024,
    }
}

/// Every job is accounted for exactly once under every policy, and the
/// books balance: Σ per-job node·residence equals the busy-nodes integral.
#[test]
fn conservation_across_policy_suite() {
    let preset = SystemPreset::MidCluster;
    let w = preset_workload(preset, 400, 1, 0.85);
    let cluster = preset_cluster(preset, per_rack(512));
    for sched in policy_suite(default_slowdown()) {
        let sim = Simulation::new(SimConfig::new(cluster, sched).checked()).unwrap();
        let out = sim.run(&w);
        assert_eq!(
            out.report.completed + out.report.killed + out.report.rejected,
            w.len(),
            "{}",
            sched.label()
        );
        // Node-second books.
        let per_job: f64 = out
            .records
            .iter()
            .filter_map(|r| {
                r.residence()
                    .map(|res| res.as_secs_f64() * r.nodes_allocated as f64)
            })
            .sum();
        let integral = out.series.nodes_busy.stats().integral_until(out.end_time);
        let rel = (per_job - integral).abs() / integral.max(1.0);
        assert!(
            rel < 1e-6,
            "{}: node-second books differ by {rel}",
            sched.label()
        );
    }
}

/// Causality: no job starts before arrival or finishes before start; a
/// completed job's residence is exactly its dilated runtime.
#[test]
fn causality_and_exact_residence() {
    let preset = SystemPreset::HighThroughput;
    let w = preset_workload(preset, 300, 2, 0.9);
    let cluster = preset_cluster(preset, per_rack(384));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolFirstFit)
        .slowdown(SlowdownModel::Linear { penalty: 1.4 })
        .build();
    let out = Simulation::new(SimConfig::new(cluster, sched).checked())
        .unwrap()
        .run(&w);
    for r in &out.records {
        let (Some(start), Some(finish)) = (r.start, r.finish) else {
            continue;
        };
        assert!(start >= r.job.arrival, "{}", r.job.id);
        assert!(finish > start, "{}", r.job.id);
        if r.outcome == JobOutcome::Completed {
            // Static model ⇒ residence = runtime × dilation exactly (±1 µs
            // rounding).
            let expect = r.job.runtime.scale(r.dilation_planned);
            let got = finish - start;
            assert!(
                got.as_micros().abs_diff(expect.as_micros()) <= 1,
                "{}: residence {} vs dilated runtime {}",
                r.job.id,
                got,
                expect
            );
        }
    }
}

/// EASY backfilling can only help mean wait relative to no backfilling
/// under FCFS (same workload, same machine).
#[test]
fn easy_no_worse_than_no_backfill() {
    let preset = SystemPreset::MidCluster;
    let w = preset_workload(preset, 500, 3, 0.95);
    let cluster = preset_cluster(preset, per_rack(512));
    let mut waits = Vec::new();
    for backfill in [BackfillPolicy::None, BackfillPolicy::Easy] {
        let sched = SchedulerBuilder::new()
            .backfill(backfill)
            .memory(MemoryPolicy::PoolBestFit)
            .slowdown(default_slowdown())
            .build();
        let out = Simulation::new(SimConfig::new(cluster, sched))
            .unwrap()
            .run(&w);
        waits.push(out.report.mean_wait_s);
    }
    assert!(
        waits[1] <= waits[0] * 1.02,
        "EASY ({}) must not be materially worse than none ({})",
        waits[1],
        waits[0]
    );
}

/// The headline claim, end to end: on a memory-stranded workload the
/// disaggregation-aware policy beats the local-only baseline on mean wait,
/// and the baseline inflates jobs while the aware policy borrows instead.
/// Runs as a declared experiment grid through the public API.
#[test]
fn disaggregation_beats_inflation_on_stranded_workload() {
    let spec = ExperimentSpec::builder("headline")
        .preset(SystemPreset::MidCluster, 800)
        .pool(per_rack(512))
        .load(0.9)
        .seed(42)
        .policy_suite(default_slowdown())
        .build()
        .unwrap();
    let results = ExperimentRunner::new().run(&spec).unwrap();
    let local = &results.cells()[0].output.report;
    let aware = &results.cells()[3].output.report;
    assert!(local.inflated_fraction > 0.03, "baseline must inflate");
    assert_eq!(local.borrowed_fraction, 0.0);
    assert!(aware.borrowed_fraction > 0.03, "aware must borrow");
    assert!(
        aware.mean_wait_s < local.mean_wait_s,
        "aware {} must beat local {}",
        aware.mean_wait_s,
        local.mean_wait_s
    );
    assert!(
        aware.inflated_fraction < local.inflated_fraction,
        "borrowing displaces inflation"
    );
}

/// SWF round trip through the full simulator: synthesize → write → parse →
/// simulate gives identical results to simulating the original (fields SWF
/// carries are second-resolution, so the generator's whole-second times
/// survive exactly; intensity differs, so compare under an
/// intensity-insensitive model).
#[test]
fn swf_roundtrip_preserves_simulation() {
    let spec = SystemPreset::MidCluster.synthetic_spec(200);
    let mut w = spec.generate(5);
    // SWF stores whole seconds: truncate generator times first.
    let jobs: Vec<_> = w
        .iter()
        .map(|j| {
            let mut j = j.clone();
            j.arrival = dmhpc::des::SimTime::from_secs(j.arrival.as_secs());
            j.runtime = dmhpc::des::SimDuration::from_secs(j.runtime.as_secs().max(1));
            j.walltime = dmhpc::des::SimDuration::from_secs(j.walltime.as_secs().max(1));
            j
        })
        .collect();
    w = dmhpc::workload::Workload::from_jobs(jobs);

    let cfg = SwfConfig {
        cores_per_node: 64,
        ..SwfConfig::default()
    };
    let text = write_string(&w, &cfg);
    let back = parse_str(&text, &cfg).unwrap().workload;
    assert_eq!(back.len(), w.len());

    let cluster = preset_cluster(SystemPreset::MidCluster, per_rack(512));
    // SlowdownModel::None makes results independent of the intensity
    // column SWF cannot carry.
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::None)
        .build();
    let sim = Simulation::new(SimConfig::new(cluster, sched)).unwrap();
    let a = sim.run(&w);
    let b = sim.run(&back);
    assert_eq!(a.report.completed, b.report.completed);
    assert_eq!(a.report.mean_wait_s, b.report.mean_wait_s);
    assert_eq!(a.trace_hash, b.trace_hash);
}

/// Load rescaling drives waits monotonically (higher offered load ⇒ no less
/// waiting) on a fixed machine and policy.
#[test]
fn wait_grows_with_load() {
    let preset = SystemPreset::MidCluster;
    let cluster = preset_cluster(preset, per_rack(512));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(default_slowdown())
        .build();
    let mut prev = 0.0;
    for load in [0.5, 0.8, 1.1] {
        let w = preset_workload(preset, 600, 7, load);
        let out = Simulation::new(SimConfig::new(cluster, sched))
            .unwrap()
            .run(&w);
        assert!(
            out.report.mean_wait_s >= prev * 0.8,
            "load {load}: wait {} collapsed below previous {prev}",
            out.report.mean_wait_s
        );
        prev = out.report.mean_wait_s;
    }
    assert!(prev > 0.0, "high load must produce queueing");
}

/// Underestimating users get their jobs killed; kills are bounded by the
/// configured underestimate fraction.
#[test]
fn underestimates_cause_kills() {
    let mut spec = SystemPreset::HighThroughput.synthetic_spec(400);
    spec.walltime.underestimate_fraction = 0.2;
    let w = spec.generate(9);
    let w = transform::rescale_load(&w, 128, 0.7);
    let cluster = preset_cluster(SystemPreset::HighThroughput, per_rack(384));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolFirstFit)
        .slowdown(default_slowdown())
        .build();
    let out = Simulation::new(SimConfig::new(cluster, sched))
        .unwrap()
        .run(&w);
    let kill_frac = out.report.killed as f64 / 400.0;
    assert!(
        kill_frac > 0.1 && kill_frac < 0.3,
        "kill fraction {kill_frac} should track the 20% underestimate rate"
    );
    // Killed jobs end exactly at their planned walltime.
    for r in out
        .records
        .iter()
        .filter(|r| r.outcome == JobOutcome::Killed)
    {
        let residence = r.residence().unwrap();
        assert!(
            residence
                <= r.job.walltime.scale(default_slowdown().worst_case())
                    + dmhpc::des::SimDuration::from_secs(1)
        );
    }
}

/// All three presets simulate cleanly under all four policies (matrix smoke
/// test with invariant checking on).
#[test]
fn preset_policy_matrix() {
    for preset in SystemPreset::ALL {
        let w = preset_workload(preset, 150, 11, 0.8);
        let cluster = preset_cluster(preset, per_rack(512));
        for sched in policy_suite(default_slowdown()) {
            let out = Simulation::new(SimConfig::new(cluster, sched).checked())
                .unwrap()
                .run(&w);
            assert_eq!(
                out.report.completed + out.report.killed + out.report.rejected,
                150,
                "{} × {}",
                preset.name(),
                sched.label()
            );
        }
    }
}

/// Rejections only ever happen for jobs that genuinely cannot fit the
/// machine under the policy's nominal shape.
#[test]
fn rejections_are_justified() {
    let preset = SystemPreset::MidCluster;
    let w = preset_workload(preset, 600, 13, 0.9);
    let cluster = preset_cluster(preset, per_rack(256));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::LocalOnly)
        .slowdown(SlowdownModel::None)
        .build();
    let out = Simulation::new(SimConfig::new(cluster, sched))
        .unwrap()
        .run(&w);
    let node_mem = cluster.node.local_mem;
    for r in &out.records {
        if r.outcome == JobOutcome::Rejected {
            let inflated = r.job.total_mem().div_ceil(node_mem).max(r.job.nodes as u64);
            assert!(
                inflated > cluster.total_nodes() as u64,
                "{} rejected but inflated size {} fits {} nodes",
                r.job.id,
                inflated,
                cluster.total_nodes()
            );
        }
    }
}

// ------------------------------------------------------ experiment API

/// The declarative grid produces identical per-cell trace hashes whether
/// the runner uses one thread or many (ISSUE acceptance: 1 vs N).
#[test]
fn experiment_runner_thread_count_invariant() {
    let spec = ExperimentSpec::builder("determinism")
        .preset(SystemPreset::HighThroughput, 120)
        .pools([PoolTopology::None, per_rack(384)])
        .loads([0.8, 1.0])
        .seeds([1, 2])
        .policy_suite(default_slowdown())
        .build()
        .unwrap();
    assert_eq!(spec.cell_count(), 2 * 2 * 2 * 4);
    let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
    let parallel = ExperimentRunner::with_threads(8).run(&spec).unwrap();
    assert_eq!(serial.len(), spec.cell_count());
    for (a, b) in serial.cells().iter().zip(parallel.cells()) {
        assert_eq!(a.key, b.key, "grid order must not depend on threads");
        assert_eq!(
            a.output.trace_hash,
            b.output.trace_hash,
            "{}",
            a.key.label()
        );
        assert_eq!(a.output.events_processed, b.output.events_processed);
    }
}

/// Specs round-trip through JSON via the facade, and the reloaded spec
/// reproduces the same simulation results hash-for-hash.
#[test]
fn experiment_spec_json_round_trip_reproduces_runs() {
    let spec = ExperimentSpec::builder("roundtrip")
        .preset(SystemPreset::HighThroughput, 80)
        .pool(per_rack(384))
        .load(0.9)
        .seed(5)
        .policy_suite(default_slowdown())
        .build()
        .unwrap();
    let json = spec.to_json().unwrap();
    let reloaded = ExperimentSpec::from_json(&json).unwrap();
    let a = ExperimentRunner::with_threads(2).run(&spec).unwrap();
    let b = ExperimentRunner::with_threads(2).run(&reloaded).unwrap();
    for (x, y) in a.cells().iter().zip(b.cells()) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.output.trace_hash, y.output.trace_hash);
    }
}

/// Construction is fallible end to end: bad grids and bad configs come
/// back as the facade's single typed error, not as panics.
#[test]
fn invalid_configuration_is_a_typed_error() {
    // Bad slowdown model through Simulation::new.
    let sched = SchedulerBuilder::new()
        .slowdown(SlowdownModel::Linear { penalty: 0.0 })
        .build();
    let cluster = preset_cluster(SystemPreset::HighThroughput, PoolTopology::None);
    let err = Simulation::new(SimConfig::new(cluster, sched)).unwrap_err();
    assert!(
        matches!(err, SimError::Platform(PlatformError::InvalidSpec { .. })),
        "{err}"
    );

    // Zero-sized machine through the typed spec constructor.
    assert!(ClusterSpec::try_new(0, 4, NodeSpec::new(4, 1024), PoolTopology::None).is_err());

    // Empty scheduler axis through the grid builder.
    let err = ExperimentSpec::builder("empty")
        .preset(SystemPreset::MidCluster, 10)
        .pool(PoolTopology::None)
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::Spec { .. }), "{err}");
}

/// Custom scheduling policies plug in through the `Ordering`/`Placement`
/// traits without forking the built-in enums: a LIFO ordering visibly
/// changes who runs first, and the run stays deterministic.
#[test]
fn custom_ordering_plugs_into_simulation() {
    #[derive(Debug)]
    struct Lifo;
    impl Ordering for Lifo {
        fn name(&self) -> &str {
            "lifo"
        }
        fn order(
            &self,
            entries: &mut [dmhpc::sched::QueuedJob],
            _ctx: &dmhpc::sched::SchedContext<'_>,
        ) {
            // Latest arrival first; ties by id to stay total.
            entries.sort_by_key(|e| {
                (
                    std::cmp::Reverse(e.job.arrival),
                    std::cmp::Reverse(e.job.id),
                )
            });
        }
    }

    let cluster = ClusterSpec::new(1, 2, NodeSpec::new(8, 64 * 1024), PoolTopology::None);
    let mk = |id: u64, arr: u64| {
        dmhpc::workload::JobBuilder::new(id)
            .arrival_secs(arr)
            .nodes(2)
            .runtime_secs(100, 200)
            .mem_per_node(1024)
            .build()
    };
    // Three full-machine jobs queued while the first runs: FCFS starts
    // 2 before 3; LIFO must start 3 (the newest) first.
    let w = Workload::from_jobs(vec![mk(1, 0), mk(2, 10), mk(3, 20)]);
    let cfg = SimConfig::new(cluster, SchedulerBuilder::new().build());

    let fcfs = Simulation::new(cfg).unwrap().run(&w);
    let start = |out: &SimOutput, id: u64| {
        out.records
            .iter()
            .find(|r| r.job.id.0 == id)
            .unwrap()
            .start
            .unwrap()
            .as_secs()
    };
    assert!(start(&fcfs, 2) < start(&fcfs, 3));

    let lifo =
        Simulation::with_policies(cfg, Box::new(Lifo), Box::new(MemoryPolicy::LocalOnly)).unwrap();
    let out = lifo.run(&w);
    assert!(
        start(&out, 3) < start(&out, 2),
        "LIFO runs the newest first"
    );
    assert!(
        out.report.label.starts_with("lifo+"),
        "{}",
        out.report.label
    );
    // Determinism holds for custom policies too.
    let again = Simulation::with_policies(cfg, Box::new(Lifo), Box::new(MemoryPolicy::LocalOnly))
        .unwrap()
        .run(&w);
    assert_eq!(out.trace_hash, again.trace_hash);
}

// ------------------------------------------------- grid-scaling layer

/// The full scaling story through the facade: shard processes populate a
/// shared content-addressed cache, the merge loads the grid purely from
/// cache with byte-identical exports, and an edited spec re-runs only
/// its changed cells.
#[test]
fn cache_shard_merge_end_to_end() {
    let dir = std::env::temp_dir().join(format!("dmhpc-e2e-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = ExperimentSpec::builder("e2e")
        .preset(SystemPreset::HighThroughput, 100)
        .pools([PoolTopology::None, per_rack(384)])
        .load(0.85)
        .seeds([1, 2])
        .policy_suite(default_slowdown())
        .build()
        .unwrap();

    // Reference: plain cold run, no cache.
    let reference = ExperimentRunner::with_threads(2).run(&spec).unwrap();

    // Three "processes" each run a disjoint shard into one cache.
    for i in 0..3 {
        let runner = ExperimentRunner::with_threads(2).cache_dir(&dir).unwrap();
        let part = runner.run_shard(&spec, Shard::new(i, 3).unwrap()).unwrap();
        assert_eq!(part.stats().cache_hits, 0, "disjoint shards share no cells");
    }

    // The merge loads every cell from the cache and matches the
    // reference exactly.
    let merged = ExperimentRunner::new()
        .cache_dir(&dir)
        .unwrap()
        .merge(&spec)
        .unwrap();
    assert_eq!(merged.stats().simulated, 0);
    assert_eq!(merged.to_csv(), reference.to_csv());
    assert_eq!(merged.to_json(), reference.to_json());

    // A warm full run over the same cache simulates nothing and exports
    // the same bytes.
    let warm = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(warm.stats().cache_hits, spec.cell_count());
    assert_eq!(warm.to_csv(), reference.to_csv());
    assert_eq!(warm.to_json(), reference.to_json());

    // Incremental re-run: add one seed; only the new cells simulate.
    let edited = dmhpc::sim::ExperimentBuilder::from_spec(spec.clone())
        .seed(3)
        .build()
        .unwrap();
    let incremental = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&edited)
        .unwrap();
    let new_cells = edited.cell_count() - spec.cell_count();
    assert_eq!(incremental.stats().cache_hits, spec.cell_count());
    assert_eq!(incremental.stats().simulated, new_cells);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Cell content hashes are a function of the parsed spec, not its JSON
/// text: reordering fields (and whole axis entries' keys) in the spec
/// document changes nothing, while editing a value moves exactly the
/// affected cells.
#[test]
fn cell_hashes_stable_across_json_field_reordering() {
    let original = r#"{
        "name": "reorder",
        "workload": {"preset": {"system": "htc-128", "jobs": 50}},
        "clusters": [{
            "label": "c0", "racks": 2, "nodes_per_rack": 8,
            "cores": 16, "node_mem_mib": 131072, "pool": "none"
        }],
        "loads": [0.9],
        "seeds": [7],
        "schedulers": [{
            "order": "fcfs", "backfill": "easy", "memory": "local-only",
            "slowdown": {"saturating": {"penalty": 1.5, "curvature": 3.0}},
            "inflate_walltime": true
        }],
        "enforce_walltime": true,
        "check_invariants": false
    }"#;
    // Same document, keys shuffled at every level.
    let reordered = r#"{
        "check_invariants": false,
        "enforce_walltime": true,
        "schedulers": [{
            "inflate_walltime": true,
            "slowdown": {"saturating": {"curvature": 3.0, "penalty": 1.5}},
            "memory": "local-only", "backfill": "easy", "order": "fcfs"
        }],
        "seeds": [7],
        "loads": [0.9],
        "clusters": [{
            "pool": "none", "node_mem_mib": 131072, "cores": 16,
            "nodes_per_rack": 8, "racks": 2, "label": "c0"
        }],
        "workload": {"preset": {"jobs": 50, "system": "htc-128"}},
        "name": "reorder"
    }"#;
    let a = ExperimentSpec::from_json(original).unwrap();
    let b = ExperimentSpec::from_json(reordered).unwrap();
    assert_eq!(a.cell_hashes().unwrap(), b.cell_hashes().unwrap());

    // Relabelling is presentation-only: hashes unchanged.
    let relabelled = ExperimentSpec::from_json(&original.replace("\"c0\"", "\"renamed\"")).unwrap();
    let hashes = |s: &ExperimentSpec| -> Vec<u64> {
        s.cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect()
    };
    assert_eq!(hashes(&a), hashes(&relabelled));

    // A real edit is not.
    let edited =
        ExperimentSpec::from_json(&original.replace("\"jobs\": 50", "\"jobs\": 51")).unwrap();
    assert_ne!(hashes(&a), hashes(&edited));
}

// ------------------------------------------------- incremental kernel parity

/// The CI smoke grid, rebuilt through the public API (the `repro` binary
/// owns the canonical copy; trace hashes do not depend on labels).
fn smoke_grid() -> ExperimentSpec {
    let saturating = SlowdownModel::Saturating {
        penalty: 1.5,
        curvature: 3.0,
    };
    let sched = |memory| {
        SchedulerBuilder::new()
            .memory(memory)
            .slowdown(saturating)
            .build()
    };
    ExperimentSpec::builder("smoke")
        .preset(SystemPreset::HighThroughput, 80)
        .pools([PoolTopology::None, per_rack(384)])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(sched(MemoryPolicy::LocalOnly))
        .scheduler(sched(MemoryPolicy::PoolFirstFit))
        .build()
        .unwrap()
}

/// Golden trace hashes of the smoke grid, captured from the pre-incremental
/// engine (PR 2, commit 3d49f30) in grid order. The incremental kernel must
/// reproduce every run event-for-event: these values pin that down and
/// also guarantee PR-2 result caches replay without invalidation.
const SMOKE_GOLDEN_HASHES: [u64; 8] = [
    0xf3b04e54bf756065, // no-pool   seed1 local-only
    0xf3b04e54bf756065, // no-pool   seed1 pool-ff
    0x7eec0cf3808dc8d9, // no-pool   seed2 local-only
    0x7eec0cf3808dc8d9, // no-pool   seed2 pool-ff
    0xf3b04e54bf756065, // rack pool seed1 local-only
    0x4fff90df5dce1ecc, // rack pool seed1 pool-ff
    0x7eec0cf3808dc8d9, // rack pool seed2 local-only
    0xe5feb24d0cd6286a, // rack pool seed2 pool-ff
];

#[test]
fn smoke_grid_matches_pre_refactor_golden_hashes() {
    let spec = smoke_grid();
    for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
        let results = ExperimentRunner::with_threads(1)
            .event_queue(kind)
            .run(&spec)
            .unwrap();
        assert_eq!(results.len(), SMOKE_GOLDEN_HASHES.len());
        for (cell, &golden) in results.cells().iter().zip(&SMOKE_GOLDEN_HASHES) {
            assert_eq!(
                cell.output.trace_hash,
                golden,
                "{} on {:?} diverged from the pre-refactor engine",
                cell.key.label(),
                kind
            );
        }
    }
}

/// The same golden table with an *explicit* `FaultSpec::none()` axis, on
/// both event-queue backends: the fault subsystem's identity scenario
/// must be bit-identical to the PR-3 engine — same traces, same pass
/// counts, and `avail_util == node_util` by the very same expression.
#[test]
fn smoke_grid_with_none_fault_spec_matches_golden_hashes() {
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .fault(FaultSpec::none())
        .build()
        .unwrap();
    assert_eq!(spec.cell_count(), SMOKE_GOLDEN_HASHES.len());
    for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
        let results = ExperimentRunner::with_threads(1)
            .event_queue(kind)
            .run(&spec)
            .unwrap();
        for (cell, &golden) in results.cells().iter().zip(&SMOKE_GOLDEN_HASHES) {
            assert_eq!(
                cell.output.trace_hash,
                golden,
                "{} on {:?}: FaultSpec::none() diverged from the fault-free engine",
                cell.key.label(),
                kind
            );
            assert_eq!(cell.key.fault, None, "identity scenario is unlabeled");
            assert_eq!(cell.output.faults.interruptions, 0);
            assert_eq!(
                cell.output.report.avail_util, cell.output.report.node_util,
                "no downtime ⇒ identical utilization expressions"
            );
        }
    }
}

/// The golden table once more with the full observer stack attached —
/// a per-cell streaming `TraceSink`, riding the new observation API.
/// Observers are hash-neutral by construction (they consume the event
/// stream, never feed back), so the observed grid must reproduce the
/// pre-refactor golden hashes exactly: PR-2/3/4 result caches replay
/// untouched no matter what is watching.
#[test]
fn smoke_grid_with_observers_matches_golden_hashes() {
    let dir = std::env::temp_dir().join(format!("dmhpc-observe-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = smoke_grid();
    for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
        let results = ExperimentRunner::with_threads(2)
            .event_queue(kind)
            .trace_dir(&dir)
            .unwrap()
            .run(&spec)
            .unwrap();
        assert_eq!(results.len(), SMOKE_GOLDEN_HASHES.len());
        for (cell, &golden) in results.cells().iter().zip(&SMOKE_GOLDEN_HASHES) {
            assert_eq!(
                cell.output.trace_hash,
                golden,
                "{} on {:?}: attached observers changed the trace",
                cell.key.label(),
                kind
            );
        }
    }
    // Every simulated cell streamed a parseable, non-empty trace.
    let traces: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    assert_eq!(
        traces.len(),
        SMOKE_GOLDEN_HASHES.len(),
        "one trace per cell"
    );
    for path in &traces {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.trim().is_empty(), "{} is empty", path.display());
        for line in text.lines() {
            dmhpc::sim::observe::parse_trace_line(line)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden hashes for two contention-model runs (dynamic re-dilation is the
/// path the pool-scoped borrower index rewrote): HighThroughput preset,
/// 400 jobs, seed 11, on 4×32 nodes of 32 cores / 192 GiB with 384 GiB
/// rack pools. Captured from the pre-incremental engine (PR 2).
#[test]
fn contention_runs_match_pre_refactor_golden_hashes() {
    let w = SystemPreset::HighThroughput
        .synthetic_spec(400)
        .generate(11);
    let cluster = ClusterSpec::new(4, 32, NodeSpec::new(32, 192 * 1024), per_rack(384));
    let cases = [
        (
            MemoryPolicy::PoolBestFit,
            SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            },
            0x75eeea250dd55c3au64,
        ),
        (
            MemoryPolicy::SlowdownAware { max_dilation: 1.4 },
            SlowdownModel::Contention {
                penalty: 1.6,
                gamma: 2.0,
            },
            0xc150f12475f21123u64,
        ),
    ];
    for (memory, slowdown, golden) in cases {
        let sched = SchedulerBuilder::new()
            .memory(memory)
            .slowdown(slowdown)
            .build();
        let cfg = SimConfig::new(cluster, sched);
        for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
            let out = Simulation::new(cfg.with_event_queue(kind)).unwrap().run(&w);
            assert_eq!(
                out.trace_hash,
                golden,
                "{}+{slowdown:?} on {kind:?} diverged from the pre-refactor engine",
                memory.name()
            );
            assert!(out.passes <= out.events_processed);
        }
    }
}

/// The event-driven kernel schedules strictly fewer passes than events on
/// every smoke cell (the pre-refactor engine ran exactly one per event
/// batch — 160 of each on these cells), while reproducing its traces.
#[test]
fn kernel_passes_are_sparse_on_the_smoke_grid() {
    let results = ExperimentRunner::with_threads(1)
        .run(&smoke_grid())
        .unwrap();
    for cell in results.cells() {
        assert!(
            cell.output.passes < cell.output.events_processed,
            "{}: {} passes for {} events — pass gating not engaged",
            cell.key.label(),
            cell.output.passes,
            cell.output.events_processed
        );
        assert!(cell.output.passes > 0);
    }
}

// ------------------------------------------------- fault & availability

/// A representative active fault scenario for grid-level tests: node
/// failures + drains + pool degradations, checkpoint/restart handling.
fn stormy_faults() -> FaultSpec {
    let mut gen = FaultGenerator::quiet(21, 40_000);
    gen.node_mtbf_s = 900;
    gen.node_repair_s = 1_800;
    gen.drain_interval_s = 3_000;
    gen.drain_duration_s = 1_200;
    gen.pool_degrade_interval_s = 5_000;
    gen.pool_degrade_duration_s = 2_500;
    gen.pool_degrade_factor = 0.4;
    FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 120 })
        .with_max_resubmits(2)
}

/// Determinism under an active `FaultSpec`: identical per-cell traces for
/// 1 vs N runner threads and for heap vs calendar event queues, with the
/// fault counters agreeing too.
#[test]
fn fault_grids_are_deterministic_across_threads_and_backends() {
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .name("smoke-faults-det")
        .fault(FaultSpec::none())
        .fault(stormy_faults())
        .build()
        .unwrap();
    assert_eq!(spec.cell_count(), 2 * 8);
    let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
    let parallel = ExperimentRunner::with_threads(8).run(&spec).unwrap();
    let calendar = ExperimentRunner::with_threads(4)
        .event_queue(EventQueueKind::Calendar)
        .run(&spec)
        .unwrap();
    let mut faulty_cells_bitten = 0;
    for ((a, b), c) in serial
        .cells()
        .iter()
        .zip(parallel.cells())
        .zip(calendar.cells())
    {
        assert_eq!(a.key, b.key, "grid order independent of threads");
        assert_eq!(a.key, c.key, "grid order independent of backend");
        assert_eq!(
            a.output.trace_hash,
            b.output.trace_hash,
            "{}",
            a.key.label()
        );
        assert_eq!(
            a.output.trace_hash,
            c.output.trace_hash,
            "{}",
            a.key.label()
        );
        assert_eq!(a.output.faults, b.output.faults);
        assert_eq!(a.output.faults, c.output.faults);
        assert_eq!(a.output.passes, c.output.passes);
        if a.key.fault.is_some() && a.output.faults.interruptions > 0 {
            faulty_cells_bitten += 1;
        }
    }
    assert!(
        faulty_cells_bitten > 0,
        "the stormy scenario must actually interrupt something"
    );
    // And the fault axis changes results: a faulty cell's trace differs
    // from its fault-free twin.
    let twin = |fault: Option<&str>| {
        serial
            .cells()
            .iter()
            .find(|c| c.key.fault.as_deref() == fault)
            .unwrap()
    };
    assert_ne!(
        twin(None).output.trace_hash,
        twin(Some(&stormy_faults().label())).output.trace_hash
    );
}

/// Cache correctness (ISSUE satellite): changing any `FaultSpec` field
/// moves the cell hash (cold re-run), while attaching `FaultSpec::none()`
/// leaves hashes — and therefore existing PR-2/PR-3 caches — untouched.
#[test]
fn fault_spec_fields_move_cell_hashes_but_none_is_hash_neutral() {
    let base = smoke_grid();
    let hashes = |spec: &ExperimentSpec| -> Vec<u64> {
        spec.cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect()
    };
    let base_hashes = hashes(&base);

    // Attaching the identity scenario: bit-identical hashes.
    let with_none = dmhpc::sim::ExperimentBuilder::from_spec(base.clone())
        .fault(FaultSpec::none())
        .build()
        .unwrap();
    assert_eq!(hashes(&with_none), base_hashes);

    // Every field of an active scenario is hash-relevant.
    let stormy = stormy_faults();
    let spec_with = |f: FaultSpec| {
        dmhpc::sim::ExperimentBuilder::from_spec(base.clone())
            .fault(f)
            .build()
            .unwrap()
    };
    let reference = hashes(&spec_with(stormy.clone()));
    assert_ne!(reference, base_hashes, "active scenario re-keys cells");

    let mut variants: Vec<FaultSpec> = vec![
        stormy.clone().with_max_resubmits(3),
        stormy.clone().with_interrupt(InterruptPolicy::Resubmit),
        stormy
            .clone()
            .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 121 }),
        stormy.clone().with_action(
            dmhpc::des::SimTime::from_secs(50),
            dmhpc::sim::FaultAction::NodeFail(dmhpc::platform::NodeId(0)),
        ),
    ];
    type GeneratorEdit<'a> = (&'a str, Box<dyn Fn(&mut FaultGenerator)>);
    let generator_edits: Vec<GeneratorEdit> = vec![
        ("seed", Box::new(|g| g.seed += 1)),
        ("horizon_s", Box::new(|g| g.horizon_s += 1)),
        ("node_mtbf_s", Box::new(|g| g.node_mtbf_s += 1)),
        ("node_repair_s", Box::new(|g| g.node_repair_s += 1)),
        ("drain_interval_s", Box::new(|g| g.drain_interval_s += 1)),
        ("drain_duration_s", Box::new(|g| g.drain_duration_s += 1)),
        (
            "pool_degrade_interval_s",
            Box::new(|g| g.pool_degrade_interval_s += 1),
        ),
        (
            "pool_degrade_duration_s",
            Box::new(|g| g.pool_degrade_duration_s += 1),
        ),
        (
            "pool_degrade_factor",
            Box::new(|g| g.pool_degrade_factor = 0.6),
        ),
    ];
    for (field, mutate) in &generator_edits {
        let mut g = stormy.generator.unwrap();
        mutate(&mut g);
        let variant = stormy.clone().with_generator(g);
        assert_ne!(
            hashes(&spec_with(variant.clone())),
            reference,
            "generator field {field} must be hash-relevant"
        );
        variants.push(variant);
    }
    for variant in variants {
        assert_ne!(
            hashes(&spec_with(variant)),
            reference,
            "every FaultSpec edit re-keys cells"
        );
    }
}

// ------------------------------------------------- open-system service mode

/// A representative open-system scenario for grid-level tests: Poisson
/// stream of the HTC job mix, utilization-targeted load, short horizon.
fn open_scenario() -> ServiceSpec {
    ServiceSpec::open(SystemPreset::HighThroughput)
        .with_utilization(0.85)
        .with_horizon_jobs(400)
        .with_warmup_secs(3_600)
        .with_slo_wait_secs(3_600.0)
}

/// The golden table with an *explicit* `ServiceSpec::none()` axis, on
/// both event-queue backends: the service subsystem's identity scenario
/// must be bit-identical to the pre-service engine — same traces, same
/// pass counts, no service summary — so PR-2/3/4 result caches replay
/// untouched.
#[test]
fn smoke_grid_with_none_service_spec_matches_golden_hashes() {
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .service(ServiceSpec::none())
        .build()
        .unwrap();
    assert_eq!(spec.cell_count(), SMOKE_GOLDEN_HASHES.len());
    for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
        let results = ExperimentRunner::with_threads(1)
            .event_queue(kind)
            .run(&spec)
            .unwrap();
        for (cell, &golden) in results.cells().iter().zip(&SMOKE_GOLDEN_HASHES) {
            assert_eq!(
                cell.output.trace_hash,
                golden,
                "{} on {:?}: ServiceSpec::none() diverged from the closed-batch engine",
                cell.key.label(),
                kind
            );
            assert_eq!(cell.key.service, None, "identity scenario is unlabeled");
            assert!(
                cell.output.service.is_none(),
                "closed cells carry no service summary"
            );
        }
    }
}

/// Cache correctness (ISSUE satellite): changing any `ServiceSpec` field
/// moves the cell hash (cold re-run), while attaching
/// `ServiceSpec::none()` leaves hashes — and therefore existing caches —
/// untouched.
#[test]
fn service_spec_fields_move_cell_hashes_but_none_is_hash_neutral() {
    let base = smoke_grid();
    let hashes = |spec: &ExperimentSpec| -> Vec<u64> {
        spec.cell_hashes()
            .unwrap()
            .into_iter()
            .map(|(_, h)| h)
            .collect()
    };
    let base_hashes = hashes(&base);

    // Attaching the identity scenario: bit-identical hashes.
    let with_none = dmhpc::sim::ExperimentBuilder::from_spec(base.clone())
        .service(ServiceSpec::none())
        .build()
        .unwrap();
    assert_eq!(hashes(&with_none), base_hashes);

    // Every field of an open scenario is hash-relevant.
    let open = open_scenario();
    let spec_with = |s: ServiceSpec| {
        dmhpc::sim::ExperimentBuilder::from_spec(base.clone())
            .service(s)
            .build()
            .unwrap()
    };
    let reference = hashes(&spec_with(open.clone()));
    assert_ne!(reference, base_hashes, "open scenario re-keys cells");

    let variants: Vec<ServiceSpec> = vec![
        ServiceSpec::open(SystemPreset::MidCluster)
            .with_utilization(0.85)
            .with_horizon_jobs(400)
            .with_warmup_secs(3_600)
            .with_slo_wait_secs(3_600.0),
        open.clone()
            .with_process(dmhpc::workload::source::ArrivalProcess::Daily {
                peak_to_trough: 3.0,
            }),
        open.clone()
            .with_process(dmhpc::workload::source::ArrivalProcess::Mmpp {
                burst_ratio: 1.8,
                mean_dwell_secs: 1_800.0,
            }),
        open.clone().with_rate(45.0),
        open.clone().with_utilization(0.9),
        open.clone().with_horizon_jobs(401),
        open.clone().with_horizon_secs(86_400),
        open.clone().with_warmup_secs(7_200),
        open.clone().with_slo_wait_secs(1_800.0),
        open.clone().with_seed(9),
    ];
    for variant in variants {
        assert_ne!(
            hashes(&spec_with(variant.clone())),
            reference,
            "ServiceSpec edit must re-key cells: {}",
            variant.label()
        );
    }
}

/// Determinism for open-system cells: identical per-cell traces and
/// service summaries for 1 vs N runner threads and for heap vs calendar
/// event queues, with closed baseline cells riding the same grid.
#[test]
fn service_grids_are_deterministic_across_threads_and_backends() {
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .name("smoke-service-det")
        .service(ServiceSpec::none())
        .service(open_scenario())
        .build()
        .unwrap();
    assert_eq!(spec.cell_count(), 2 * 8);
    let serial = ExperimentRunner::with_threads(1).run(&spec).unwrap();
    let parallel = ExperimentRunner::with_threads(8).run(&spec).unwrap();
    let calendar = ExperimentRunner::with_threads(4)
        .event_queue(EventQueueKind::Calendar)
        .run(&spec)
        .unwrap();
    let mut open_cells = 0;
    for ((a, b), c) in serial
        .cells()
        .iter()
        .zip(parallel.cells())
        .zip(calendar.cells())
    {
        assert_eq!(a.key, b.key, "grid order independent of threads");
        assert_eq!(a.key, c.key, "grid order independent of backend");
        assert_eq!(
            a.output.trace_hash,
            b.output.trace_hash,
            "{}",
            a.key.label()
        );
        assert_eq!(
            a.output.trace_hash,
            c.output.trace_hash,
            "{}",
            a.key.label()
        );
        assert_eq!(a.output.service, b.output.service);
        assert_eq!(a.output.service, c.output.service);
        if a.key.service.is_some() {
            open_cells += 1;
            let svc = a.output.service.expect("open cells report a summary");
            assert!(svc.observed > 0, "{}", a.key.label());
            assert!(a.output.records.is_empty(), "sketch path keeps no records");
        }
    }
    assert_eq!(open_cells, 8, "half the grid streams");
    // The service axis changes results: an open cell's trace differs from
    // its closed twin's.
    let twin = |service: Option<&str>| {
        serial
            .cells()
            .iter()
            .find(|c| c.key.service.as_deref() == service)
            .unwrap()
    };
    assert_ne!(
        twin(None).output.trace_hash,
        twin(Some(&open_scenario().label())).output.trace_hash
    );
}

/// Pull-based admission is trace-identical to pre-loading the same
/// stream as a closed batch: materialize the open source into a
/// `Workload`, run it closed, and compare hashes with the open run.
#[test]
fn open_admission_matches_materialized_closed_batch() {
    use dmhpc::workload::source::JobSource as _;
    let cluster = preset_cluster(SystemPreset::HighThroughput, per_rack(384));
    let scenario = open_scenario().with_seed(17);
    let mut src = scenario.open_source(&cluster).unwrap();
    let workload = Workload::from_jobs(std::iter::from_fn(|| src.next_job()).collect());
    assert_eq!(workload.len(), 400, "whole horizon materialized");
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolFirstFit)
        .slowdown(default_slowdown())
        .build();
    let cfg = SimConfig::new(cluster, sched);
    let closed = Simulation::new(cfg).unwrap().run(&workload);
    let open = Simulation::new(cfg)
        .unwrap()
        .with_service_spec(scenario)
        .unwrap()
        .run(&Workload::from_jobs(Vec::new()));
    assert_eq!(
        open.trace_hash, closed.trace_hash,
        "open admission replays the materialized stream bit-identically"
    );
    assert_eq!(open.events_processed, closed.events_processed);
    assert_eq!(open.passes, closed.passes);
}

/// Service cells participate in the content-addressed cache end to end:
/// an open grid populates it cold, replays warm with byte-identical
/// exports (service summary included), and the closed baseline cells
/// collide with — i.e. are served by — a cache populated by the plain
/// grid.
#[test]
fn service_cells_cache_and_replay_byte_identically() {
    let dir = std::env::temp_dir().join(format!("dmhpc-service-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .name("smoke-service-cache")
        .service(ServiceSpec::none())
        .service(open_scenario())
        .build()
        .unwrap();
    // Pre-populate with the plain (service-free) grid: its cells must
    // serve the closed half of the service grid.
    let plain = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&smoke_grid())
        .unwrap();
    assert_eq!(plain.stats().simulated, smoke_grid().cell_count());
    let cold = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(
        cold.stats().cache_hits,
        smoke_grid().cell_count(),
        "closed baseline cells replay from the pre-service cache"
    );
    assert_eq!(cold.stats().simulated, spec.cell_count() / 2);
    let warm = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(warm.stats().simulated, 0, "all cells replay from cache");
    assert_eq!(warm.to_csv(), cold.to_csv());
    assert_eq!(warm.to_json(), cold.to_json());
    for (a, b) in warm.cells().iter().zip(cold.cells()) {
        assert_eq!(a.output.service, b.output.service, "summary round-trips");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault cells participate in the content-addressed cache end to end: a
/// faulty grid populates it cold, replays warm with byte-identical
/// exports, and never collides with the fault-free twin cells.
#[test]
fn fault_cells_cache_and_replay_byte_identically() {
    let dir = std::env::temp_dir().join(format!("dmhpc-fault-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = dmhpc::sim::ExperimentBuilder::from_spec(smoke_grid())
        .name("smoke-faults-cache")
        .fault(FaultSpec::none())
        .fault(stormy_faults())
        .build()
        .unwrap();
    let cold = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(cold.stats().simulated, spec.cell_count());
    let warm = ExperimentRunner::with_threads(2)
        .cache_dir(&dir)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(warm.stats().simulated, 0, "all cells replay from cache");
    assert_eq!(warm.to_csv(), cold.to_csv());
    assert_eq!(warm.to_json(), cold.to_json());
    for (a, b) in warm.cells().iter().zip(cold.cells()) {
        assert_eq!(a.output.faults, b.output.faults, "summary round-trips");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
