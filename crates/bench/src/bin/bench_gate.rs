//! CI bench-regression gate for the experiment runner and the engine
//! kernel.
//!
//! Reads the JSON-lines file the criterion-shim emits when `BENCH_JSON`
//! is set (one `{"name", "mean_ns", "std_ns"}` object per benchmark) and
//! compares two ratios against a checked-in baseline:
//!
//! * **runner overhead** — the whole declarative path
//!   (`experiment_runner/run/1`) over the same cells simulated by hand
//!   (`experiment_runner/raw_cells`);
//! * **kernel backend** — engine throughput on the calendar event queue
//!   (`engine_kernel/calendar`) over the binary heap
//!   (`engine_kernel/heap`), so the opt-in backend cannot silently rot;
//! * **fault path** — the same workload under the canned fault storm
//!   (`engine_faults/storm`) over its fault-free run
//!   (`engine_faults/none`), bounding what the availability subsystem may
//!   cost (it is dead code on fault-free runs; under faults the overhead
//!   is interruption work plus the redone jobs, not a per-event tax);
//! * **observer overhead** — the same workload with the full extra
//!   observer set attached (`engine_observers/full`: streaming JSONL
//!   trace sink + sampled series probe + event counter) over the default
//!   observer set alone (`engine_observers/none`), bounding what
//!   attaching observers may cost per event;
//! * **service sketch path** — an open-system run streaming its jobs
//!   from the arrival source into O(1)-memory sketch metrics
//!   (`engine_service/sketch`) over a closed batch of the same size on
//!   the record-keeping job-stats path (`engine_service/jobstats`),
//!   bounding what pull-based admission plus the sketch observer may
//!   cost relative to the path they replace;
//! * **deadline ordering** — the same deadline-stamped workload under
//!   EDF ordering (`engine_deadline/edf`) over FCFS on identical stamps
//!   (`engine_deadline/fcfs`), bounding what deadline-aware queue
//!   ordering may cost per run (the stamps are data the pass comparator
//!   reads, never extra simulation work);
//! * **admission control** — the same deadline-stamped workload under
//!   the full deadline stack — laxity-aware placement plus infeasibility
//!   rejection (`engine_admission/guarded`) — over plain EDF on the same
//!   stamps (`engine_admission/edf`), bounding what the per-admission
//!   feasibility probe and the laxity-priced placement scan may cost;
//! * **federation scaling** — the 4-site fleet advanced by one worker
//!   per site (`engine_scale/threaded`) over the same fleet on a single
//!   worker (`engine_scale/serial`). The arms are byte-identical, so
//!   this gate bounds a *speedup*: threaded must stay at or below the
//!   `fleet_scale_ratio` baseline (0.7× serial) on multi-core runners.
//!   On hosts where the `engine_scale/parallelism` pseudo-entry reports
//!   fewer than 2 cores the gate is skipped with a printed note —
//!   lockstep threading cannot beat serial without cores to run on.
//!
//! Ratios, not absolute times: CI machines vary wildly in speed, but cost
//! relative to a same-machine reference is a property of the code. Every
//! gate is read and printed; the run then exits non-zero, listing each red
//! gate, when some measured ratio exceeds `baseline × (1 + max_regression)`
//! or some gate's entries are missing.
//!
//! ```text
//! BENCH_JSON=BENCH_ci.json cargo bench -p dmhpc-bench --bench bench_experiment
//! cargo run -p dmhpc-bench --bin bench_gate -- BENCH_ci.json crates/bench/BENCH_baseline.json
//! ```

use dmhpc_metrics::json::{parse, Json};

/// One ratio gate: `num` over `den` must stay within the baseline ratio
/// stored under `baseline`.
struct Gate {
    label: &'static str,
    num: &'static str,
    den: &'static str,
    baseline: &'static str,
}

/// The gates every host reads.
const GATES: [Gate; 7] = [
    Gate {
        label: "runner overhead",
        num: "experiment_runner/run/1",
        den: "experiment_runner/raw_cells",
        baseline: "runner_overhead_ratio",
    },
    Gate {
        label: "kernel calendar-vs-heap",
        num: "engine_kernel/calendar",
        den: "engine_kernel/heap",
        baseline: "kernel_calendar_vs_heap_ratio",
    },
    Gate {
        label: "fault storm vs clean kernel",
        num: "engine_faults/storm",
        den: "engine_faults/none",
        baseline: "faults_vs_clean_ratio",
    },
    Gate {
        label: "observer overhead",
        num: "engine_observers/full",
        den: "engine_observers/none",
        baseline: "observer_overhead_ratio",
    },
    Gate {
        label: "service sketch vs jobstats",
        num: "engine_service/sketch",
        den: "engine_service/jobstats",
        baseline: "sketch_vs_jobstats_ratio",
    },
    Gate {
        label: "deadline ordering vs fcfs",
        num: "engine_deadline/edf",
        den: "engine_deadline/fcfs",
        baseline: "deadline_vs_fcfs_ratio",
    },
    Gate {
        label: "admission stack vs edf",
        num: "engine_admission/guarded",
        den: "engine_admission/edf",
        baseline: "admission_vs_edf_ratio",
    },
];

/// The speedup gate, read only on hosts with at least two cores.
const FLEET_GATE: Gate = Gate {
    label: "federation scaling",
    num: "engine_scale/threaded",
    den: "engine_scale/serial",
    baseline: "fleet_scale_ratio",
};

/// The pseudo-entry recording the host's parallelism.
const SCALE_PARALLELISM: &str = "engine_scale/parallelism";

fn mean_of(lines: &str, bench: &str) -> Result<f64, String> {
    // Last occurrence wins: re-runs append.
    let mut found = None;
    for line in lines.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse(line).map_err(|e| format!("bad bench-results line {line:?}: {e}"))?;
        let name = doc
            .expect_key("name")
            .and_then(|n| n.to_str().map(str::to_string))
            .map_err(|e| e.to_string())?;
        if name == bench {
            let mean = doc
                .expect_key("mean_ns")
                .and_then(|m| m.to_f64())
                .map_err(|e| e.to_string())?;
            found = Some(mean);
        }
    }
    found.ok_or_else(|| {
        format!("benchmark {bench:?} not found in results (did bench_experiment run?)")
    })
}

/// Read `g`'s entries and baseline and print its reading; returns an
/// error message when the gate is red.
fn check(g: &Gate, results: &str, baseline: &Json, max_regression: f64) -> Result<(), String> {
    let labelled = |e: String| format!("{}: {e}", g.label);
    let baseline_ratio = baseline
        .expect_key(g.baseline)
        .and_then(|b| b.to_f64())
        .map_err(|e| labelled(e.to_string()))?;
    let num_ns = mean_of(results, g.num).map_err(labelled)?;
    let den_ns = mean_of(results, g.den).map_err(labelled)?;
    if den_ns <= 0.0 {
        return Err(labelled(format!(
            "{} mean is not positive ({den_ns} ns)",
            g.den
        )));
    }
    let ratio = num_ns / den_ns;
    let limit = baseline_ratio * (1.0 + max_regression);
    println!(
        "{}: {} = {num_ns:.0} ns, {} = {den_ns:.0} ns",
        g.label, g.num, g.den
    );
    println!(
        "measured ratio {ratio:.3} vs baseline {baseline_ratio:.3} \
         (limit {limit:.3} = baseline × {:.2})",
        1.0 + max_regression
    );
    if ratio > limit {
        return Err(format!(
            "{} regressed: ratio {ratio:.3} exceeds limit {limit:.3}",
            g.label
        ));
    }
    Ok(())
}

/// Check every gate, printing each reading; returns the red gates, one
/// message each.
fn red_gates(results: &str, baseline: &Json) -> Result<Vec<String>, String> {
    let max_regression = baseline
        .expect_key("max_regression")
        .and_then(|m| m.to_f64())
        .map_err(|e| e.to_string())?;
    let mut red = Vec::new();
    let mut read = |g: &Gate| {
        if let Err(e) = check(g, results, baseline, max_regression) {
            println!("{}: RED ({e})", g.label);
            red.push(e);
        }
    };
    GATES.iter().for_each(&mut read);
    // The federation gate bounds a speedup, so it only means anything on
    // a host with cores to parallelize over: the bench records the
    // machine's parallelism next to its timings, and on a single-core
    // runner the gate is skipped — loudly, so CI logs show the skip.
    match mean_of(results, SCALE_PARALLELISM) {
        Ok(parallelism) if parallelism < 2.0 => println!(
            "federation scaling: SKIPPED (host parallelism {parallelism:.0} < 2 — \
             lockstep threading cannot beat serial without cores; the ratio \
             is gated on multi-core CI runners)"
        ),
        Ok(_) => read(&FLEET_GATE),
        Err(e) => {
            println!("{}: RED ({e})", FLEET_GATE.label);
            red.push(format!("{}: {e}", FLEET_GATE.label));
        }
    }
    Ok(red)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [results_path, baseline_path] = args.as_slice() else {
        return Err("usage: bench_gate <bench-results.jsonl> <baseline.json>".into());
    };

    let results = std::fs::read_to_string(results_path)
        .map_err(|e| format!("reading {results_path}: {e}"))?;
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let baseline = parse(&baseline_text)?;
    let red = red_gates(&results, &baseline)?;
    if !red.is_empty() {
        eprintln!("bench gate FAILED: {} red gate(s)", red.len());
        for gate in &red {
            eprintln!("  {gate}");
        }
        std::process::exit(1);
    }
    println!("bench gate OK");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries no gate names — like the scheduling-pass and profile
    /// latencies CI appends to the same file — are skipped, and the last
    /// occurrence of a gated entry still wins.
    #[test]
    fn mean_of_skips_entries_no_gate_reads() {
        let lines = [
            r#"{"name": "experiment_runner/run/1", "mean_ns": 100.0, "std_ns": 1.0}"#,
            r#"{"name": "scheduling_pass/conservative/512", "mean_ns": 200000.0, "std_ns": 1.0}"#,
            r#"{"name": "availability_profile/earliest_fit/1024", "mean_ns": 70000.0, "std_ns": 1.0}"#,
            r#"{"name": "experiment_runner/run/1", "mean_ns": 120.0, "std_ns": 1.0}"#,
        ]
        .join("\n");
        assert_eq!(mean_of(&lines, GATES[0].num), Ok(120.0));
        assert!(mean_of(&lines, GATES[0].den).is_err());
    }

    /// Results where every gate but two reads 1.0, with a baseline of 1.0
    /// for each and a 25% allowance.
    fn readings(red: &[&str], parallelism: f64) -> (String, Json) {
        let mut lines = Vec::new();
        let mut baseline = String::from(r#"{"max_regression": 0.25"#);
        for g in GATES.iter().chain([&FLEET_GATE]) {
            let num = if red.contains(&g.label) { 200.0 } else { 100.0 };
            lines.push(format!(r#"{{"name": "{}", "mean_ns": {num}}}"#, g.num));
            lines.push(format!(r#"{{"name": "{}", "mean_ns": 100.0}}"#, g.den));
            baseline.push_str(&format!(r#", "{}": 1.0"#, g.baseline));
        }
        lines.push(format!(
            r#"{{"name": "{SCALE_PARALLELISM}", "mean_ns": {parallelism}}}"#
        ));
        baseline.push('}');
        (lines.join("\n"), parse(&baseline).unwrap())
    }

    /// Two red gates are both reported: the first does not hide the second.
    #[test]
    fn every_red_gate_is_reported() {
        let (results, baseline) = readings(&["observer overhead", "admission stack vs edf"], 1.0);
        let red = red_gates(&results, &baseline).unwrap();
        assert_eq!(red.len(), 2, "{red:?}");
        assert!(red[0].starts_with("observer overhead regressed"), "{red:?}");
        assert!(
            red[1].starts_with("admission stack vs edf regressed"),
            "{red:?}"
        );
    }

    /// The federation gate is read on a multi-core host and skipped on a
    /// single core; a missing entry is red without stopping the others.
    #[test]
    fn fleet_gate_follows_parallelism_and_missing_entries_are_red() {
        let (results, baseline) = readings(&["federation scaling"], 2.0);
        let red = red_gates(&results, &baseline).unwrap();
        assert_eq!(red.len(), 1, "{red:?}");
        let (results, baseline) = readings(&["federation scaling"], 1.0);
        assert!(red_gates(&results, &baseline).unwrap().is_empty());
        let results: String = results
            .lines()
            .filter(|l| !l.contains("engine_faults/none"))
            .collect::<Vec<_>>()
            .join("\n");
        let red = red_gates(&results, &baseline).unwrap();
        assert_eq!(red.len(), 1, "{red:?}");
        assert!(
            red[0].starts_with("fault storm vs clean kernel: "),
            "{red:?}"
        );
    }
}
