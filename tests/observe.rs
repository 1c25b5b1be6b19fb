//! The streaming observation API, end to end: observer determinism
//! (byte-identical traces across thread counts and event-queue backends),
//! hash-neutrality against the result cache, and the bounded-memory
//! guarantee of the JSONL trace sink.

use dmhpc::prelude::*;
use dmhpc::sim::observe::parse_trace_line;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dmhpc-observe-{}-{name}", std::process::id()))
}

fn per_rack(gib: u64) -> PoolTopology {
    PoolTopology::PerRack {
        mib_per_rack: gib * 1024,
    }
}

fn small_grid(name: &str) -> ExperimentSpec {
    ExperimentSpec::builder(name)
        .preset(SystemPreset::HighThroughput, 60)
        .pools([PoolTopology::None, per_rack(384)])
        .load(0.8)
        .seeds([1, 2])
        .scheduler(
            SchedulerBuilder::new()
                .memory(MemoryPolicy::PoolBestFit)
                .slowdown(SlowdownModel::Linear { penalty: 1.5 })
                .build(),
        )
        .build()
        .unwrap()
}

fn read_traces(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).unwrap(),
            )
        })
        .collect()
}

/// 1-thread and N-thread grid runs stream byte-identical per-cell traces:
/// the event stream is a pure function of the cell, not of scheduling.
#[test]
fn traces_are_byte_identical_across_thread_counts() {
    let spec = small_grid("observe-threads");
    let (dir1, dir4) = (tmp("threads-1"), tmp("threads-4"));
    for (dir, threads) in [(&dir1, 1), (&dir4, 4)] {
        let _ = std::fs::remove_dir_all(dir);
        ExperimentRunner::with_threads(threads)
            .trace_dir(dir)
            .unwrap()
            .run(&spec)
            .unwrap();
    }
    let (a, b) = (read_traces(&dir1), read_traces(&dir4));
    assert_eq!(a.len(), spec.cell_count());
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "same cells traced"
    );
    for (name, text) in &a {
        assert_eq!(text, &b[name], "{name} differs between 1 and 4 threads");
        assert!(!text.trim().is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

/// Heap and calendar event queues stream byte-identical traces — under an
/// active fault scenario too (the strongest event-ordering stressor).
#[test]
fn traces_are_byte_identical_across_queue_backends() {
    let w = SystemPreset::HighThroughput.synthetic_spec(250).generate(3);
    let cluster = ClusterSpec::new(2, 16, NodeSpec::new(32, 192 * 1024), per_rack(384));
    let mut gen = FaultGenerator::quiet(11, 400_000);
    gen.node_mtbf_s = 40_000;
    gen.node_repair_s = 10_000;
    gen.drain_interval_s = 150_000;
    gen.drain_duration_s = 20_000;
    let faults = FaultSpec::none()
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
    let mut texts = Vec::new();
    for kind in [EventQueueKind::BinaryHeap, EventQueueKind::Calendar] {
        let path = tmp(&format!("backend-{}.jsonl", kind.name()));
        let cfg = SimConfig::new(cluster, sched).with_event_queue(kind);
        let sim = Simulation::new(cfg)
            .unwrap()
            .with_fault_spec(faults.clone())
            .unwrap();
        let mut sink = TraceSink::create(&path).unwrap();
        let out = sim.run_with(&w, ObserverSet::new().watch(&mut sink));
        assert!(out.faults.interruptions > 0, "scenario actually bites");
        sink.finish().unwrap();
        texts.push(std::fs::read_to_string(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(texts[0], texts[1], "backends must stream identical traces");
}

/// The bounded-memory guarantee: a large run through a sink whose buffer
/// is tiny still lands every event on disk — memory is O(buffer), the
/// trace is O(events), and the two are decoupled.
#[test]
fn trace_sink_streams_full_event_count_through_small_buffer() {
    let w = SystemPreset::HighThroughput
        .synthetic_spec(2_000)
        .generate(9);
    let cluster = ClusterSpec::new(4, 32, NodeSpec::new(32, 192 * 1024), per_rack(512));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Saturating {
            penalty: 1.5,
            curvature: 3.0,
        })
        .build();
    let sim = Simulation::new(SimConfig::new(cluster, sched)).unwrap();
    let path = tmp("bounded.jsonl");
    // 256 bytes: smaller than a single line, so the sink must stream.
    let mut sink = TraceSink::with_buffer(&path, 256).unwrap();
    let out = sim.run_with(&w, ObserverSet::new().watch(&mut sink));
    let written = sink.finish().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len() as u64,
        written + 2,
        "every event on disk, plus header and footer"
    );
    // Event volume scales with the workload (≥ submit+start+grab+release+
    // finish per completed job), far beyond any buffer.
    assert!(
        written >= 5 * out.report.completed as u64,
        "{written} events for {} completed jobs",
        out.report.completed
    );
    // Spot-parse head, middle, and tail; footer carries the trace hash.
    for &i in &[0usize, lines.len() / 2, lines.len() - 1] {
        parse_trace_line(lines[i]).unwrap();
    }
    assert!(lines[lines.len() - 1].contains(&format!("{:016x}", out.trace_hash)));
    let _ = std::fs::remove_file(&path);
}

/// Observers compose with the result cache without perturbing it: a cold
/// observed run stores the same cells a plain run would, and the warm
/// replay exports byte-identical CSV/JSON while writing no traces (cached
/// cells are never re-simulated).
#[test]
fn warm_cache_replay_under_observation_is_byte_identical() {
    let spec = small_grid("observe-cache");
    let cache = tmp("cache");
    let traces_cold = tmp("cache-traces-cold");
    let traces_warm = tmp("cache-traces-warm");
    for d in [&cache, &traces_cold, &traces_warm] {
        let _ = std::fs::remove_dir_all(d);
    }

    let plain = ExperimentRunner::with_threads(2).run(&spec).unwrap();
    let cold = ExperimentRunner::with_threads(2)
        .cache_dir(&cache)
        .unwrap()
        .trace_dir(&traces_cold)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(cold.stats().simulated, spec.cell_count());
    assert_eq!(read_traces(&traces_cold).len(), spec.cell_count());

    let warm = ExperimentRunner::with_threads(2)
        .cache_dir(&cache)
        .unwrap()
        .trace_dir(&traces_warm)
        .unwrap()
        .run(&spec)
        .unwrap();
    assert_eq!(warm.stats().cache_hits, spec.cell_count());
    assert_eq!(warm.stats().simulated, 0);
    assert!(
        read_traces(&traces_warm).is_empty(),
        "cache hits are not re-simulated, so they emit no trace"
    );
    // Observation changed nothing: plain, cold-observed, and warm replay
    // all export the same bytes.
    assert_eq!(plain.to_csv(), cold.to_csv());
    assert_eq!(plain.to_csv(), warm.to_csv());
    assert_eq!(plain.to_json(), warm.to_json());
    for (p, w) in plain.cells().iter().zip(warm.cells()) {
        assert_eq!(p.output.trace_hash, w.output.trace_hash);
    }
    for d in [&cache, &traces_cold, &traces_warm] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The sampled probe's output is bounded by the cadence, not the event
/// count, and its final sample shows the drained machine.
#[test]
fn sampled_probe_output_is_cadence_bounded() {
    let w = SystemPreset::HighThroughput
        .synthetic_spec(1_000)
        .generate(4);
    let cluster = ClusterSpec::new(4, 32, NodeSpec::new(32, 192 * 1024), per_rack(512));
    let sched = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolFirstFit)
        .slowdown(SlowdownModel::Linear { penalty: 1.5 })
        .build();
    let sim = Simulation::new(SimConfig::new(cluster, sched)).unwrap();
    let mut probe = SampledSeriesProbe::new(SimDuration::from_secs(6 * 3600));
    let out = sim.run_with(&w, ObserverSet::new().watch(&mut probe));
    let span_h = out.end_time.as_hours_f64();
    let expected = (span_h / 6.0).floor() as usize + 2; // cadence points + closing sample
    assert!(
        probe.samples().len() <= expected,
        "{} samples for a {span_h:.1}h run at 6h cadence",
        probe.samples().len()
    );
    assert!(probe.samples().len() >= 3, "probe actually sampled");
    let last = probe.samples().last().unwrap();
    assert_eq!(last.running, 0);
    assert_eq!(last.nodes_busy, 0);
}

/// FNV-1a 64 of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small run streamed through a [`TraceSink`]; returns the trace text.
fn traced(name: &str, sim: Simulation, w: &Workload) -> String {
    let path = tmp(name);
    let mut sink = TraceSink::create(&path).unwrap();
    sim.run_with(w, ObserverSet::new().watch(&mut sink));
    sink.finish().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    text
}

/// The sink's bytes are pinned, not just its parse: a contention run
/// (fractional dilations) and a fault storm (interruptions with rework,
/// pool degradations by a fractional factor) hash as they did when every
/// field went through `core::fmt`.
#[test]
fn trace_sink_bytes_are_pinned() {
    let w = SystemPreset::HighThroughput.synthetic_spec(200).generate(5);
    let cluster = ClusterSpec::new(2, 16, NodeSpec::new(32, 192 * 1024), per_rack(384));
    let contention = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolBestFit)
        .slowdown(SlowdownModel::Contention {
            penalty: 1.5,
            gamma: 1.0,
        })
        .build();
    let sim = Simulation::new(SimConfig::new(cluster, contention)).unwrap();
    let text = traced("pinned-contention.jsonl", sim, &w);
    assert!(text.contains(r#""dilation":1}"#) && text.contains(r#""dilation":1."#));
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x4be4_f94d_4491_e9a3,
        "contention trace"
    );

    let mut gen = FaultGenerator::quiet(13, 300_000);
    gen.node_mtbf_s = 30_000;
    gen.node_repair_s = 8_000;
    gen.drain_interval_s = 100_000;
    gen.drain_duration_s = 20_000;
    gen.pool_degrade_interval_s = 60_000;
    gen.pool_degrade_duration_s = 15_000;
    gen.pool_degrade_factor = 0.35;
    let faults = FaultSpec::none()
        .with_generator(gen)
        .with_interrupt(InterruptPolicy::Checkpoint { overhead_s: 60 })
        .with_max_resubmits(2);
    let storm = SchedulerBuilder::new()
        .memory(MemoryPolicy::PoolFirstFit)
        .build();
    let sim = Simulation::new(SimConfig::new(cluster, storm))
        .unwrap()
        .with_fault_spec(faults)
        .unwrap();
    let text = traced("pinned-storm.jsonl", sim, &w);
    for kind in ["interrupt", "pool_degrade", "node_fail"] {
        assert!(text.contains(kind), "the storm has {kind} events");
    }
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xa293_a4fc_0b21_f3af,
        "fault-storm trace"
    );
}
