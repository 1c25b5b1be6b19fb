//! Trace replay: run a Standard Workload Format (SWF) trace through two
//! schedulers and compare.
//!
//! Pass a path to any SWF file (Parallel Workloads Archive format); without
//! an argument the example writes a synthetic trace to SWF first and replays
//! that, demonstrating the full round trip real deployments use. The trace
//! enters the experiment grid as a fixed workload
//! ([`dmhpc::sim::WorkloadSource::Fixed`]): the seed axis collapses, the
//! load axis still pins offered load against the target machine.
//!
//! ```text
//! cargo run --release --example trace_replay [-- /path/to/trace.swf]
//! ```

use dmhpc::prelude::*;
use dmhpc::workload::swf::{parse_reader, write_string, SwfConfig};
use dmhpc::workload::transform;
use std::io::BufReader;

fn main() -> Result<(), SimError> {
    let swf_cfg = SwfConfig {
        cores_per_node: 64,
        default_mem_per_node: 64 * 1024,
        ..SwfConfig::default()
    };

    let (trace_name, workload) = match std::env::args().nth(1) {
        Some(path) => {
            let file = std::fs::File::open(&path)
                .map_err(|e| SimError::io(format!("opening SWF file {path}"), e))?;
            let trace = parse_reader(BufReader::new(file), &swf_cfg)
                .map_err(|e| SimError::parse(format!("SWF file {path}: {e}")))?;
            println!(
                "parsed {} jobs ({} lines skipped) from {path}",
                trace.workload.len(),
                trace.skipped
            );
            for (k, v) in trace.header.iter().take(5) {
                println!("  header {k}: {v}");
            }
            (path, trace.workload)
        }
        None => {
            // Round trip: synthesize → write SWF → parse SWF.
            let w = SystemPreset::MidCluster.synthetic_spec(800).generate(21);
            let text = write_string(&w, &swf_cfg);
            let trace =
                dmhpc::workload::swf::parse_str(&text, &swf_cfg).map_err(SimError::parse)?;
            println!(
                "no SWF given: synthesized {} jobs and round-tripped through SWF",
                trace.workload.len()
            );
            ("synthetic".to_string(), trace.workload)
        }
    };

    // Normalize the trace for the target machine: cap node requests and
    // shift to t=0 (the grid's load axis pins offered load per cluster).
    let cluster = ClusterSpec::try_new(
        8,
        32,
        NodeSpec::new(64, 256 * 1024),
        PoolTopology::PerRack {
            mib_per_rack: 512 * 1024,
        },
    )?;
    let workload = transform::cap_nodes(&workload, cluster.total_nodes());
    let workload = transform::shift_to_origin(&workload);

    println!(
        "replaying {trace_name}: {} jobs at load 0.90\n",
        workload.len()
    );

    let slowdown = SlowdownModel::Saturating {
        penalty: 1.5,
        curvature: 3.0,
    };
    let spec = ExperimentSpec::builder("trace-replay")
        .fixed_workload(workload)
        .cluster("replay-256", cluster)
        .load(0.9)
        .schedulers(
            [
                MemoryPolicy::LocalOnly,
                MemoryPolicy::SlowdownAware { max_dilation: 1.35 },
            ]
            .map(|memory| {
                SchedulerBuilder::new()
                    .memory(memory)
                    .slowdown(slowdown)
                    .build()
            }),
        )
        .build()?;
    let results = ExperimentRunner::new().run(&spec)?;

    for cell in results.cells() {
        let r = &cell.output.report;
        println!(
            "{:<28} wait {:>7.0} s   p95 bsld {:>6.2}   util {:>5.1}%   inflated {:>4.1}%   borrowed {:>4.1}%",
            cell.output.report.label,
            r.mean_wait_s,
            r.p95_bsld,
            100.0 * r.node_util,
            100.0 * r.inflated_fraction,
            100.0 * r.borrowed_fraction,
        );
    }
    Ok(())
}
