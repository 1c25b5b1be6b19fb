//! Hash-neutrality goldens for the CI smoke grids.
//!
//! The SLO/deadline work added per-job `Slo` stamps, a scheduler-context
//! API, new ordering policies, and service-level budget-factor stamping.
//! All of it must be *absent-is-neutral*: a grid that never mentions
//! deadlines digests, hashes, and replays exactly as it did before the
//! feature existed — otherwise every pre-SLO result cache in the wild is
//! silently invalidated. These tests pin the cache cell keys of the three
//! long-standing smoke grids to the values captured before the redesign,
//! and prove a warm cache replays byte-identically on both event-queue
//! backends.
//!
//! Every smoke cell backfills EASY, so a conservative grid over all three
//! pool topologies, with and without faults, pins both its cell keys and
//! its trace hashes — every decision the conservative pass makes.

use dmhpc_bench::experiments;
use dmhpc_platform::{PoolTopology, SlowdownModel};
use dmhpc_sched::{BackfillPolicy, MemoryPolicy, SchedulerBuilder};
use dmhpc_sim::{EventQueueKind, ExperimentRunner, ExperimentSpec, FaultSpec};
use dmhpc_workload::SystemPreset;

/// `(cell label, cache cell key)` for every cell of a grid, captured
/// before SLO stamps / `SchedContext` / deadline policies existed.
const SMOKE_GOLDEN_CELLS: &[(&str, u64)] = &[
    (
        "no-pool|load0.80|seed1|fcfs+easy+local-only+sat1.5k3",
        0xf78438cad0676df3,
    ),
    (
        "no-pool|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3",
        0x2582b8a2e8186199,
    ),
    (
        "no-pool|load0.80|seed2|fcfs+easy+local-only+sat1.5k3",
        0xb3478e545677e454,
    ),
    (
        "no-pool|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3",
        0x39491907498b3c94,
    ),
    (
        "rack-384gib|load0.80|seed1|fcfs+easy+local-only+sat1.5k3",
        0x86215f88d9ee73c6,
    ),
    (
        "rack-384gib|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3",
        0xc28ef2263ac8559a,
    ),
    (
        "rack-384gib|load0.80|seed2|fcfs+easy+local-only+sat1.5k3",
        0x66c199bd834e1989,
    ),
    (
        "rack-384gib|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3",
        0xf539de4a8647e8eb,
    ),
];

const SMOKE_FAULTS_GOLDEN_CELLS: &[(&str, u64)] = &[
    ("no-pool|load0.80|seed1|fcfs+easy+pool-bf+con1.5g1", 0x16d5efaf3932b10b),
    ("no-pool|load0.80|seed1|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xc0c6eb50e50a7648),
    ("no-pool|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x9e5620d103868368),
    ("no-pool|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xeeb0b7787d5edf7f),
    ("no-pool|load0.80|seed2|fcfs+easy+pool-bf+con1.5g1", 0x488c51f81d17b402),
    ("no-pool|load0.80|seed2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x7dea239731471f97),
    ("no-pool|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x17e1602133128531),
    ("no-pool|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xcbbab97dfe515c34),
    ("rack-384gib|load0.80|seed1|fcfs+easy+pool-bf+con1.5g1", 0xff47b8433f20282c),
    ("rack-384gib|load0.80|seed1|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x77b155c353eca84d),
    ("rack-384gib|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x9f7922e241f79fe3),
    ("rack-384gib|load0.80|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0xd67772ecba3f4d7a),
    ("rack-384gib|load0.80|seed2|fcfs+easy+pool-bf+con1.5g1", 0x69bf476e443c2649),
    ("rack-384gib|load0.80|seed2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x6ca18e6dcce0f292),
    ("rack-384gib|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+pool-bf+con1.5g1", 0x3f1d46c0a8007856),
    ("rack-384gib|load0.80|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+easy+slowdown-aware1.4+con1.5g1", 0x4d11a71d77599261),
];

/// Open-system cells too: the run-wide wait SLO (`slo3600`) predates this
/// work and was already hashed, and the new optional budget-factor
/// stamping writes nothing when unset — so even service cells keep their
/// pre-redesign keys.
const SMOKE_SERVICE_GOLDEN_CELLS: &[(&str, u64)] = &[
    ("no-pool|load0.80|seed1|fcfs+easy+local-only+sat1.5k3", 0xf78438cad0676df3),
    ("no-pool|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3", 0x2582b8a2e8186199),
    ("no-pool|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0x953d30caf65f9233),
    ("no-pool|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0x726cf622ae34615d),
    ("no-pool|load0.80|seed2|fcfs+easy+local-only+sat1.5k3", 0xb3478e545677e454),
    ("no-pool|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3", 0x39491907498b3c94),
    ("no-pool|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0xafc7856759328a7d),
    ("no-pool|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0x1dd738309bfec43d),
    ("rack-384gib|load0.80|seed1|fcfs+easy+local-only+sat1.5k3", 0x86215f88d9ee73c6),
    ("rack-384gib|load0.80|seed1|fcfs+easy+pool-ff+sat1.5k3", 0xc28ef2263ac8559a),
    ("rack-384gib|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0xc56b747081e0e13c),
    ("rack-384gib|load0.80|seed1|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0xe5d4a112d3a9a890),
    ("rack-384gib|load0.80|seed2|fcfs+easy+local-only+sat1.5k3", 0x66c199bd834e1989),
    ("rack-384gib|load0.80|seed2|fcfs+easy+pool-ff+sat1.5k3", 0xf539de4a8647e8eb),
    ("rack-384gib|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+local-only+sat1.5k3", 0x98e3c1bfa61ba1ce),
    ("rack-384gib|load0.80|seed2|svc-htc-128-poisson-u0.85-j2000-w3600-slo3600|fcfs+easy+pool-ff+sat1.5k3", 0xf62413adcc9912f8),
];

fn assert_cells_match(spec: &ExperimentSpec, golden: &[(&str, u64)]) {
    let hashes = spec.cell_hashes().expect("spec compiles");
    assert_eq!(hashes.len(), golden.len(), "{}: cell count", spec.name);
    for ((key, hash), (label, want)) in hashes.iter().zip(golden) {
        assert_eq!(key.label(), *label, "{}: cell order/labels", spec.name);
        assert_eq!(
            hash, want,
            "{}: cache key for {label} drifted — pre-SLO result caches would miss",
            spec.name
        );
    }
}

#[test]
fn smoke_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(&experiments::smoke_spec().unwrap(), SMOKE_GOLDEN_CELLS);
}

#[test]
fn smoke_faults_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(
        &experiments::smoke_faults_spec().unwrap(),
        SMOKE_FAULTS_GOLDEN_CELLS,
    );
}

#[test]
fn smoke_service_cell_keys_match_pre_slo_goldens() {
    assert_cells_match(
        &experiments::smoke_service_spec().unwrap(),
        SMOKE_SERVICE_GOLDEN_CELLS,
    );
}

/// Conservative backfilling on all three pool topologies (none, per-rack,
/// global), fault-free and under the canned fault storm, whose node
/// failures and pool degradations drive the pass's degraded branch.
fn conservative_spec() -> ExperimentSpec {
    let sched = |memory| {
        SchedulerBuilder::new()
            .backfill(BackfillPolicy::Conservative)
            .memory(memory)
            .slowdown(SlowdownModel::Contention {
                penalty: 1.5,
                gamma: 1.0,
            })
            .build()
    };
    ExperimentSpec::builder("golden-conservative")
        .preset(SystemPreset::HighThroughput, 240)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 384 * 1024,
            },
            PoolTopology::Global { mib: 1536 * 1024 },
        ])
        .load(0.95)
        .seeds([1, 2])
        .scheduler(sched(MemoryPolicy::PoolBestFit))
        .scheduler(sched(MemoryPolicy::SlowdownAware { max_dilation: 1.4 }))
        .fault(FaultSpec::none())
        .fault(experiments::default_fault_scenario())
        .build()
        .unwrap()
}

/// `(cell label, cache cell key, trace hash)` for every cell of
/// [`conservative_spec`], captured before the conservative pass learned to
/// stop reserving once nothing more can start. The trace hash pins every
/// scheduling decision, not just the cell's inputs.
const CONSERVATIVE_GOLDEN_CELLS: &[(&str, u64, u64)] = &[
    ("no-pool|load0.95|seed1|fcfs+conservative+pool-bf+con1.5g1", 0xc50dae0052143b2c, 0x41be9277617a8a0b),
    ("no-pool|load0.95|seed1|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0xfa742d876d61094d, 0x41be9277617a8a0b),
    ("no-pool|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0x1b096de70e5212e3, 0x6ac906bde8db7c23),
    ("no-pool|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0xb4f12a6e64cbce7a, 0x6ac906bde8db7c23),
    ("no-pool|load0.95|seed2|fcfs+conservative+pool-bf+con1.5g1", 0xc5cd9c4623c30985, 0x52d8b69e46a9e972),
    ("no-pool|load0.95|seed2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x81028bd2104181ae, 0x52d8b69e46a9e972),
    ("no-pool|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0xf7bcc304a72bed92, 0x1b38dc02ef8cfa57),
    ("no-pool|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x7e7b8d9b16b19e9d, 0x1b38dc02ef8cfa57),
    ("rack-384gib|load0.95|seed1|fcfs+conservative+pool-bf+con1.5g1", 0x6b8a61bc194dcff3, 0xbebface4b21419ce),
    ("rack-384gib|load0.95|seed1|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0xaad1f638d2337110, 0x9a6fdc23ba8b3c93),
    ("rack-384gib|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0xa3d629c214ccc9f0, 0x721b4b6d7d916600),
    ("rack-384gib|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0xca5307d617e23a47, 0x487722b876bdfa33),
    ("rack-384gib|load0.95|seed2|fcfs+conservative+pool-bf+con1.5g1", 0x263be87f91ffae0e, 0xaa38c9b278f01e80),
    ("rack-384gib|load0.95|seed2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x3e7abc1504ac3783, 0x6f3aa171a3b826aa),
    ("rack-384gib|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0x67bae302869877fd, 0x3a3dcbb158d0a8be),
    ("rack-384gib|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x3ff7a47eca4bfaa0, 0xa6c0ace7803ebf87),
    ("global-1536gib|load0.95|seed1|fcfs+conservative+pool-bf+con1.5g1", 0x506bc09cb6322b0d, 0x7903793c46c103ae),
    ("global-1536gib|load0.95|seed1|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x99c61e448a930816, 0x09012c43f216ae56),
    ("global-1536gib|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0xeb6a4c490d098c3a, 0x150213170b42e0c8),
    ("global-1536gib|load0.95|seed1|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x06c9b63a4c58afa5, 0xb370238764c9dc9c),
    ("global-1536gib|load0.95|seed2|fcfs+conservative+pool-bf+con1.5g1", 0xf5b6200026450824, 0x7d6b6275ee2e86b5),
    ("global-1536gib|load0.95|seed2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0x93f5beeb548659a5, 0x694ff96ca65ef55d),
    ("global-1536gib|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+pool-bf+con1.5g1", 0xb10a227429226f1b, 0xfa8d6745a0923501),
    ("global-1536gib|load0.95|seed2|gen21-mtbf900-drain3000-pdeg5000-ckpt120-r2|fcfs+conservative+slowdown-aware1.4+con1.5g1", 0xf8f1dc2c607100b2, 0x912bc4bd0571e305),
];

#[test]
fn conservative_cells_match_goldens() {
    let spec = conservative_spec();
    let keys: Vec<(&str, u64)> = CONSERVATIVE_GOLDEN_CELLS
        .iter()
        .map(|&(label, key, _)| (label, key))
        .collect();
    assert_cells_match(&spec, &keys);
    let results = ExperimentRunner::with_threads(2).run(&spec).unwrap();
    assert_eq!(results.len(), CONSERVATIVE_GOLDEN_CELLS.len());
    for (cell, &(label, _, trace)) in results.cells().iter().zip(CONSERVATIVE_GOLDEN_CELLS) {
        assert_eq!(
            cell.output.trace_hash, trace,
            "{label}: a conservative-backfill decision changed"
        );
    }
}

/// The deadline grid, by contrast, must NOT collide with any pre-SLO key:
/// its cells hash in the budget-factor stamp and (for non-FCFS cells) a
/// different ordering, so a shared cache can never serve a deadline cell
/// from a deadline-free run or vice versa.
#[test]
fn smoke_deadline_cell_keys_are_disjoint_from_goldens() {
    let spec = experiments::smoke_deadline_spec().unwrap();
    let golden: Vec<u64> = SMOKE_GOLDEN_CELLS
        .iter()
        .chain(SMOKE_FAULTS_GOLDEN_CELLS)
        .chain(SMOKE_SERVICE_GOLDEN_CELLS)
        .map(|&(_, h)| h)
        .collect();
    for (key, hash) in spec.cell_hashes().unwrap() {
        assert!(
            !golden.contains(&hash),
            "deadline cell {} collides with a pre-SLO cache key",
            key.label()
        );
    }
}

/// The federation grid splits the same way the service grid does: its
/// no-fleet baseline half must keep the exact pre-federation smoke keys
/// (so a shared cache serves both grids), while every federated cell
/// must be disjoint from *all* pre-federation goldens — a cache can
/// never serve a fleet cell from a single-cluster run or vice versa.
#[test]
fn smoke_fleet_baseline_keeps_goldens_and_fleet_cells_are_disjoint() {
    let spec = experiments::smoke_fleet_spec().unwrap();
    let golden: Vec<u64> = SMOKE_GOLDEN_CELLS
        .iter()
        .chain(SMOKE_FAULTS_GOLDEN_CELLS)
        .chain(SMOKE_SERVICE_GOLDEN_CELLS)
        .map(|&(_, h)| h)
        .collect();
    let smoke: Vec<u64> = SMOKE_GOLDEN_CELLS.iter().map(|&(_, h)| h).collect();
    let mut baseline = 0;
    for (key, hash) in spec.cell_hashes().unwrap() {
        match &key.fleet {
            None => {
                baseline += 1;
                assert!(
                    smoke.contains(&hash),
                    "no-fleet cell {} must keep its pre-federation smoke key",
                    key.label()
                );
            }
            Some(label) => {
                assert_eq!(label, "fleet4-least-queue-e300");
                assert!(
                    !golden.contains(&hash),
                    "fleet cell {} collides with a pre-federation cache key",
                    key.label()
                );
            }
        }
    }
    assert_eq!(baseline, SMOKE_GOLDEN_CELLS.len());
}

/// Federated cells round-trip through the result cache like plain cells:
/// cold-run the fleet grid on the heap backend, warm-replay on the
/// calendar backend — zero simulations, byte-identical exports. This
/// pins both cache replay of fleet aggregates and heap-vs-calendar
/// byte-identity of the federation engine, end to end through the grid
/// runner.
#[test]
fn smoke_fleet_warm_replay_is_byte_identical_across_backends() {
    let dir = std::env::temp_dir().join(format!("dmhpc-golden-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = experiments::smoke_fleet_spec().unwrap();

    let cold_runner = ExperimentRunner::with_threads(2)
        .event_queue(EventQueueKind::BinaryHeap)
        .cache_dir(&dir)
        .unwrap();
    let cold = cold_runner.run(&spec).unwrap();
    assert_eq!(cold.stats().simulated, cold.len(), "cold run simulates all");

    let warm_runner = ExperimentRunner::with_threads(2)
        .event_queue(EventQueueKind::Calendar)
        .cache_dir(&dir)
        .unwrap();
    let warm = warm_runner.run(&spec).unwrap();
    assert_eq!(warm.stats().simulated, 0, "warm run is all cache hits");
    assert_eq!(cold.to_csv(), warm.to_csv(), "CSV replays byte-identically");
    assert_eq!(cold.to_json(), warm.to_json(), "JSON too");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold-run the smoke grid into a cache on one event-queue backend, then
/// warm-replay it on the *other* backend: zero simulations, and the
/// exported CSV and JSON documents are byte-identical. Backend choice and
/// replay must both be invisible in results — including the new trailing
/// `slo_attainment` column, which stays empty for this SLO-free grid.
#[test]
fn warm_replay_is_byte_identical_on_both_queue_backends() {
    let dir = std::env::temp_dir().join(format!("dmhpc-golden-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = experiments::smoke_spec().unwrap();

    let cold_runner = ExperimentRunner::with_threads(2)
        .event_queue(EventQueueKind::BinaryHeap)
        .cache_dir(&dir)
        .unwrap();
    let cold = cold_runner.run(&spec).unwrap();
    assert_eq!(cold.stats().simulated, cold.len(), "cold run simulates all");

    let warm_runner = ExperimentRunner::with_threads(2)
        .event_queue(EventQueueKind::Calendar)
        .cache_dir(&dir)
        .unwrap();
    let warm = warm_runner.run(&spec).unwrap();
    assert_eq!(warm.stats().simulated, 0, "warm run is all cache hits");
    assert_eq!(warm.stats().cache_hits, cold.len());

    assert_eq!(cold.to_csv(), warm.to_csv(), "CSV replays byte-identically");
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "JSON replays byte-identically"
    );
    // The SLO-free grid's new attainment column is present but empty.
    for line in cold.to_csv().trim_end().lines().skip(1) {
        assert!(line.ends_with(','));
    }
    assert!(!cold.to_json().contains("slo_attainment"));
    let _ = std::fs::remove_dir_all(&dir);
}
