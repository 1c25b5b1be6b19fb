//! The repository benchmark: four reference workloads of the simulator,
//! absolute end-to-end throughput, and a per-layer trace taken from
//! outside the program.
//!
//! ```text
//! perfbench --workload <closed-easy|grid-conservative|service-open|fleet-4site>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing attached;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Either prints its metrics by name and unit, the host's
//! `nproc`, the seed and the workload parameters, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`, where
//! `attempted`/`failed` count correctness checks. `--smoke` runs every
//! workload at a tiny size, both ways, with every check, and exits
//! non-zero if any check fails. See `perfbench/README.md`.

mod layers;
mod stats;
mod trace;
mod workloads;

use stats::{nproc, Checks, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Kind};

/// What one invocation asks for.
#[derive(Debug)]
struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: workloads::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.kind.is_none() && !args.smoke {
        return Err("--workload is required (or --smoke)".into());
    }
    Ok(args)
}

/// Scratch output directory (caches, traces, span dumps).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload one way; returns its report, the instance count and
/// the check tally.
fn run(cfg: &Config, trace: bool) -> (Option<Report>, u64, Checks) {
    let mut checks = Checks::default();
    let result = if trace {
        layers::traced(cfg, &mut checks)
    } else {
        workloads::end_to_end(cfg, &mut checks)
    };
    match result {
        Ok((report, instances)) => (Some(report), instances, checks),
        Err(e) => {
            checks.check(false, || format!("{}: {e}", cfg.kind.name()));
            (None, 0, checks)
        }
    }
}

/// Every workload at its smoke size, untraced and traced.
fn smoke() -> Checks {
    let mut total = Checks::default();
    for kind in Kind::ALL {
        for trace in [false, true] {
            let cfg = Config {
                kind,
                seed: workloads::DEFAULT_SEED,
                seconds: 0.0,
                smoke: true,
                threads: nproc(),
                out_dir: out_dir(),
            };
            let (report, _, checks) = run(&cfg, trace);
            let metrics = report.map_or(0, |r| r.metrics.len());
            println!(
                "smoke {:<18} trace={} metrics={metrics:<3} checks={} failed={}",
                kind.name(),
                u8::from(trace),
                checks.attempted,
                checks.failed
            );
            total.attempted += checks.attempted;
            total.failed += checks.failed;
        }
    }
    total
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    if args.smoke {
        let checks = smoke();
        println!(
            "smoke: {} checks, {} failed",
            checks.attempted, checks.failed
        );
        return if checks.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(kind) = args.kind else {
        return ExitCode::from(2);
    };
    let cfg = Config {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        smoke: false,
        threads: nproc(),
        out_dir: out_dir(),
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} threads={}",
        kind.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(args.trace),
        nproc(),
        cfg.threads
    );
    println!("perfbench: {}", kind.describe());
    let (report, instances, checks) = run(&cfg, args.trace);
    let Some(report) = report else {
        eprintln!("perfbench: run failed");
        return ExitCode::FAILURE;
    };
    println!(
        "perfbench: {instances} instances, {} checks, {} failed",
        checks.attempted, checks.failed
    );
    for m in &report.metrics {
        println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json_line(&checks));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's own test: every workload, both ways, tiny sizes,
    /// every correctness check.
    #[test]
    fn smoke_passes_every_check() {
        std::fs::create_dir_all(out_dir()).expect("out dir");
        let checks = smoke();
        assert!(checks.attempted > 0);
        assert_eq!(checks.failed, 0, "smoke checks failed (see stderr)");
    }

    /// The metrics each mode emits are exactly those `BENCHMARK.json`
    /// declares, with the declared units.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = dmhpc_metrics::json::parse(&text).expect("valid JSON");
        std::fs::create_dir_all(out_dir()).expect("out dir");
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let cfg = Config {
                kind: Kind::ClosedEasy,
                seed: 3,
                seconds: 0.0,
                smoke: true,
                threads: 1,
                out_dir: out_dir(),
            };
            let (report, _, checks) = run(&cfg, trace);
            assert_eq!(checks.failed, 0);
            let emitted: Vec<(String, String)> = report
                .expect("report")
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared, "{key}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fleet-4site --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.kind, Some(Kind::Fleet4Site));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload closed-easy --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
