//! Reproduction harness: regenerate any table/figure of the evaluation,
//! and run/shard/merge declarative experiment grids at scale.
//!
//! ```text
//! # Tables and figures (optionally accelerated by a result cache):
//! cargo run --release -p dmhpc-bench --bin repro -- all
//! cargo run --release -p dmhpc-bench --bin repro -- --cache-dir .cache t2 f3 f6
//!
//! # Grid mode: run a spec (JSON file or the built-in `smoke` grid),
//! # optionally one shard of it, storing cells in the content-addressed
//! # cache so independent shard processes/CI jobs share one store:
//! cargo run --release -p dmhpc-bench --bin repro -- grid smoke --shard 0/2 --cache-dir .grid
//! cargo run --release -p dmhpc-bench --bin repro -- grid smoke --shard 1/2 --cache-dir .grid
//!
//! # Merge: load the full grid-ordered table from the cache. It never
//! # simulates or writes a cell, so a cell no shard stored fails the
//! # merge, every time, until that shard runs:
//! cargo run --release -p dmhpc-bench --bin repro -- merge smoke --cache-dir .grid
//! ```
//!
//! Table/figure output is printed and mirrored to `results/<id>.txt`;
//! grid/merge output lands in `results/<name>.*.{csv,json}`.
//!
//! The table ids and the built-in grid names are each listed once, in
//! `experiments::TABLES` and `experiments::GRIDS`; `--list`, the usage
//! text and spec loading all read those lists. A tables or grid run
//! builds one [`ExperimentRunner`] from its knobs ([`ExecKnobs::runner`])
//! and passes it to every table or grid it runs.
//!
//! Internally every invocation is parsed ([`parse_cli`]) and then
//! *resolved* ([`RunMode::resolve`]) into one [`RunMode`] variant carrying
//! exactly the knobs that apply to it. Every flag × mode combination rule
//! lives in `resolve` — the run functions below cannot even see a flag
//! that is meaningless in their mode.

use dmhpc_bench::experiments::{self, Table, GRIDS, TABLES};
use dmhpc_sim::{
    EventQueueKind, ExperimentResults, ExperimentRunner, ExperimentSpec, Shard, SimError,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

fn usage() {
    let grids: Vec<&str> = GRIDS.iter().map(|(name, _)| *name).collect();
    let builtin = grids.join("|");
    eprintln!("usage: repro [--list] [--cache-dir DIR] [--threads N] [--queue heap|calendar] [--trace-out DIR] <id>... | all");
    eprintln!("       repro grid  <spec.json|{builtin}> [--shard i/n] [--cache-dir DIR] [--threads N] [--queue heap|calendar] [--trace-out DIR]");
    eprintln!("       repro merge <spec.json|{builtin}> --cache-dir DIR");
    eprintln!("       merge loads every cell from the cache and never simulates or");
    eprintln!("       writes one; a cell no shard stored fails it");
    eprintln!("       a spec's \"scenarios\" list adds fault, open-service and fleet cells");
    eprintln!("       beside its plain ones (smoke-faults, smoke-service and smoke-fleet");
    eprintln!("       are built-in examples); federated cells run observation-free and");
    eprintln!("       write no --trace-out trace");
    eprintln!("       --trace-out DIR streams one <spec>.<cell>.jsonl event trace per");
    eprintln!("       simulated cell into DIR (constant memory per cell; hash-neutral,");
    eprintln!("       so result caches stay warm — cache-hit cells emit no trace)");
    let ids: Vec<&str> = TABLES.iter().map(|t| t.id).collect();
    eprintln!("ids: {}", ids.join(" "));
    eprintln!("     the ids and the built-in grid names above are each listed once, in");
    eprintln!("     experiments::TABLES and experiments::GRIDS; --list prints both");
}

/// Raw flags exactly as given — parsed, but not yet checked against each
/// other. [`RunMode::resolve`] turns this into something runnable.
#[derive(Debug)]
struct Cli {
    mode: Mode,
    list: bool,
    cache_dir: Option<PathBuf>,
    shard: Option<Shard>,
    /// `None` = auto (one worker per core); validated ≥ 1 when given.
    threads: Option<usize>,
    queue: Option<EventQueueKind>,
    /// Stream per-cell event traces into this directory.
    trace_out: Option<PathBuf>,
    args: Vec<String>,
}

#[derive(Debug)]
enum Mode {
    Tables,
    Grid,
    Merge,
}

/// Everything the simulated-run modes share: cache, workers, event-queue
/// backend, trace export.
#[derive(Debug)]
struct ExecKnobs {
    cache_dir: Option<PathBuf>,
    /// `0` = auto (one worker per core).
    threads: usize,
    queue: Option<EventQueueKind>,
    trace_out: Option<PathBuf>,
}

impl ExecKnobs {
    fn from_cli(cli: Cli) -> Self {
        ExecKnobs {
            cache_dir: cli.cache_dir,
            threads: cli.threads.unwrap_or(0),
            queue: cli.queue,
            trace_out: cli.trace_out,
        }
    }

    /// The one runner a tables or grid invocation runs everything on.
    fn runner(&self) -> Result<ExperimentRunner, SimError> {
        let mut runner = ExperimentRunner::with_threads(self.threads);
        if let Some(dir) = &self.cache_dir {
            runner = runner.cache_dir(dir)?;
        }
        if let Some(kind) = self.queue {
            runner = runner.event_queue(kind);
        }
        if let Some(dir) = &self.trace_out {
            runner = runner.trace_dir(dir)?;
        }
        Ok(runner)
    }
}

/// One fully validated invocation. Each variant carries exactly the knobs
/// that apply to it; every rejected flag combination is refused in
/// [`RunMode::resolve`] — the single source of truth for the CLI's
/// flag × mode matrix (exhaustively pinned by
/// `rejected_flag_combinations`).
#[derive(Debug)]
enum RunMode {
    /// `repro --list`: print experiment ids and the built-in grid
    /// inventory. Never simulates.
    ListTables,
    /// `repro <id>... | all`: regenerate tables/figures.
    Tables { ids: Vec<String>, exec: ExecKnobs },
    /// `repro grid <spec> --list`: print the cells (optionally one
    /// shard's) the spec compiles to. Never simulates.
    ListGrid {
        spec_arg: String,
        shard: Option<Shard>,
    },
    /// `repro grid <spec>`: run a grid, optionally one shard of it.
    Grid {
        spec_arg: String,
        shard: Option<Shard>,
        exec: ExecKnobs,
    },
    /// `repro merge <spec>`: load the full grid from the cache.
    Merge {
        spec_arg: String,
        cache_dir: PathBuf,
    },
}

impl RunMode {
    /// The one place flag combinations are accepted or refused. Checks
    /// keep the historical order so every long-standing error message
    /// (and the CI scripts grepping for them) is preserved verbatim.
    fn resolve(mut cli: Cli) -> Result<RunMode, String> {
        // Listing never simulates, in any mode: execution knobs are
        // refused, not silently dropped.
        fn reject_exec_knobs_under_list(cli: &Cli) -> Result<(), String> {
            if cli.threads.is_some() {
                return Err("--threads does not apply to --list (listing never simulates)".into());
            }
            if cli.queue.is_some() {
                return Err("--queue does not apply to --list (listing never simulates)".into());
            }
            if cli.trace_out.is_some() {
                return Err(
                    "--trace-out does not apply to --list (listing never simulates)".into(),
                );
            }
            Ok(())
        }
        match cli.mode {
            Mode::Grid => {
                let Some(spec_arg) = cli.args.first().cloned() else {
                    return Err("grid mode needs a spec (a JSON file or `smoke`)".into());
                };
                if cli.list {
                    reject_exec_knobs_under_list(&cli)?;
                    return Ok(RunMode::ListGrid {
                        spec_arg,
                        shard: cli.shard,
                    });
                }
                Ok(RunMode::Grid {
                    spec_arg,
                    shard: cli.shard,
                    exec: ExecKnobs::from_cli(cli),
                })
            }
            Mode::Merge => {
                let Some(spec_arg) = cli.args.first().cloned() else {
                    return Err("merge mode needs a spec (a JSON file or `smoke`)".into());
                };
                if cli.cache_dir.is_none() {
                    return Err(
                        "merge mode needs --cache-dir (where the shards stored cells)".to_string(),
                    );
                }
                if cli.shard.is_some() {
                    return Err(
                        "--shard does not apply to merge mode (it always rebuilds the full grid)"
                            .into(),
                    );
                }
                if cli.threads.is_some() {
                    // Merge only loads cells, so a worker count here
                    // means the caller expected simulations.
                    return Err(
                        "--threads does not apply to merge mode (merge loads cells, never \
                         simulates; use `grid` to run missing cells)"
                            .into(),
                    );
                }
                if cli.queue.is_some() {
                    return Err(
                        "--queue does not apply to merge mode (merge loads cells, never \
                         simulates)"
                            .into(),
                    );
                }
                if cli.trace_out.is_some() {
                    return Err(
                        "--trace-out does not apply to merge mode (merge loads cells, never \
                         simulates)"
                            .into(),
                    );
                }
                Ok(RunMode::Merge {
                    spec_arg,
                    cache_dir: cli.cache_dir.expect("checked above"),
                })
            }
            Mode::Tables => {
                if cli.shard.is_some() {
                    // Silently running the *full* suite under a flag
                    // that promises a slice would double work in fan-out
                    // scripts; refuse instead.
                    return Err(
                        "--shard only applies to grid mode (tables always run whole grids)".into(),
                    );
                }
                if cli.list {
                    reject_exec_knobs_under_list(&cli)?;
                    return Ok(RunMode::ListTables);
                }
                Ok(RunMode::Tables {
                    ids: std::mem::take(&mut cli.args),
                    exec: ExecKnobs::from_cli(cli),
                })
            }
        }
    }
}

fn parse_cli(raw: Vec<String>) -> Result<Cli, Box<dyn std::error::Error>> {
    let mut cli = Cli {
        mode: Mode::Tables,
        list: false,
        cache_dir: None,
        shard: None,
        threads: None,
        queue: None,
        trace_out: None,
        args: Vec::new(),
    };
    let mut it = raw.into_iter().peekable();
    if let Some(first) = it.peek() {
        match first.as_str() {
            "grid" => {
                cli.mode = Mode::Grid;
                it.next();
            }
            "merge" => {
                cli.mode = Mode::Merge;
                it.next();
            }
            _ => {}
        }
    }
    while let Some(arg) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::vec::IntoIter<String>>,
                     flag: &str|
         -> Result<String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value").into())
        };
        match arg.as_str() {
            "--list" => cli.list = true,
            "--cache-dir" => cli.cache_dir = Some(PathBuf::from(value(&mut it, "--cache-dir")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value(&mut it, "--trace-out")?)),
            "--shard" => cli.shard = Some(Shard::parse(&value(&mut it, "--shard")?)?),
            "--threads" => {
                let n: usize = value(&mut it, "--threads")?.parse()?;
                if n == 0 {
                    // `0` used to silently mean "auto" — ambiguous enough
                    // that fan-out scripts passed it expecting "none".
                    return Err(
                        "--threads needs a positive worker count (omit the flag for one \
                         worker per core)"
                            .into(),
                    );
                }
                cli.threads = Some(n);
            }
            "--queue" => {
                cli.queue = Some(match value(&mut it, "--queue")?.as_str() {
                    "heap" => EventQueueKind::BinaryHeap,
                    "calendar" => EventQueueKind::Calendar,
                    other => {
                        return Err(format!(
                            "unknown event-queue backend {other:?} (expected heap or calendar)"
                        )
                        .into())
                    }
                });
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}").into());
            }
            _ => cli.args.push(arg),
        }
    }
    Ok(cli)
}

/// Resolve a grid-mode spec argument: the name of a built-in grid
/// (`GRIDS`), or a JSON file path. Compile errors surface as `SimError` →
/// non-zero exit.
fn load_spec(arg: &str) -> Result<ExperimentSpec, Box<dyn std::error::Error>> {
    if let Some((_, build)) = GRIDS.iter().find(|(name, _)| *name == arg) {
        return Ok(build()?);
    }
    let text =
        std::fs::read_to_string(arg).map_err(|e| SimError::io(format!("reading spec {arg}"), e))?;
    Ok(ExperimentSpec::from_json(&text)?)
}

fn export(results: &ExperimentResults, stem: &str) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    std::fs::write(format!("results/{stem}.csv"), results.to_csv())?;
    std::fs::write(format!("results/{stem}.json"), results.to_json())?;
    Ok(())
}

fn list_grid(spec_arg: &str, shard: Option<Shard>) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(spec_arg)?;
    // Listing compiles the grid, so an ill-formed spec fails loudly here
    // instead of being discovered mid-CI. With --shard, list exactly the
    // cells that shard would run.
    for (i, (key, hash)) in spec.cell_hashes()?.into_iter().enumerate() {
        if shard.is_none_or(|s| s.owns(i)) {
            println!("{:016x}  {}", hash, key.label());
        }
    }
    Ok(())
}

fn run_grid(
    spec_arg: &str,
    shard: Option<Shard>,
    exec: &ExecKnobs,
) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(spec_arg)?;
    let runner = exec.runner()?;
    let started_at = std::time::SystemTime::now();
    let start = Instant::now();
    let (results, stem) = match shard {
        Some(shard) => (
            runner.run_shard(&spec, shard)?,
            format!("{}.shard{}of{}", spec.name, shard.index(), shard.count()),
        ),
        None => (runner.run(&spec)?, spec.name.clone()),
    };
    export(&results, &stem)?;
    let stats = results.stats();
    println!(
        "== grid {} — {} cells ({} simulated, {} cached) [{:.1}s] -> results/{stem}.{{csv,json}}",
        spec.name,
        results.len(),
        stats.simulated,
        stats.cache_hits,
        start.elapsed().as_secs_f64()
    );
    if let Some(dir) = &exec.trace_out {
        // Fleet cells run observation-free, so only the other simulated
        // cells owe a trace.
        verify_traces(dir, stats.observable, started_at)?;
    }
    Ok(())
}

/// Check the streamed traces after a `--trace-out` run: every `.jsonl`
/// file must be non-empty and every line must parse as JSON. A run that
/// simulated `observable` cells (cells an observer watches) must have
/// written at least one *fresh* trace (mtime at/after the run started,
/// with a 1 s cushion for coarse filesystem timestamps) — stale files
/// from earlier runs are still validated but cannot satisfy that check,
/// and the totals distinguish the two so smoke logs show what this
/// invocation actually exported.
fn verify_traces(
    dir: &PathBuf,
    observable: usize,
    started_at: std::time::SystemTime,
) -> Result<(), Box<dyn std::error::Error>> {
    let cutoff = started_at - std::time::Duration::from_secs(1);
    let mut files = 0usize;
    let mut fresh = 0usize;
    let mut events = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "jsonl") {
            continue;
        }
        // Stream line by line: traces can be arbitrarily large (that is
        // the point of the sink), so verification must not buffer one
        // wholesale.
        use std::io::BufRead as _;
        let reader = std::io::BufReader::new(std::fs::File::open(&path)?);
        let mut lines = 0usize;
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            dmhpc_sim::observe::parse_trace_line(&line)
                .map_err(|e| format!("trace {} line {}: {e}", path.display(), i + 1))?;
            lines += 1;
        }
        if lines == 0 {
            return Err(format!("trace {} is empty", path.display()).into());
        }
        files += 1;
        if entry.metadata()?.modified().is_ok_and(|m| m >= cutoff) {
            fresh += 1;
        }
        events += lines.saturating_sub(2); // header + footer
    }
    if observable > 0 && fresh == 0 {
        return Err(format!(
            "--trace-out {}: {observable} observable cells simulated but no trace files \
             written by this run",
            dir.display()
        )
        .into());
    }
    println!(
        "== traces: {files} files ({fresh} from this run), {events} events verified -> {}",
        dir.display()
    );
    Ok(())
}

fn run_merge(spec_arg: &str, cache_dir: &PathBuf) -> Result<(), Box<dyn std::error::Error>> {
    let spec = load_spec(spec_arg)?;
    let start = Instant::now();
    let results = ExperimentRunner::new().cache_dir(cache_dir)?.merge(&spec)?;
    export(&results, &spec.name)?;
    println!(
        "== merge {} — {} cells, all from cache [{:.1}s] -> results/{}.{{csv,json}}",
        spec.name,
        results.len(),
        start.elapsed().as_secs_f64(),
        spec.name
    );
    Ok(())
}

fn list_tables() -> Result<(), Box<dyn std::error::Error>> {
    for table in &TABLES {
        println!("{}", table.id);
    }
    // The built-in grid specs are part of the CLI surface; an ill-formed
    // one must fail the listing (and therefore CI), not exit 0 silently.
    for (name, build) in &GRIDS {
        println!("grid: {name} ({} cells)", build()?.compile()?.len());
    }
    Ok(())
}

fn run_tables(ids: &[String], exec: &ExecKnobs) -> Result<(), Box<dyn std::error::Error>> {
    let tables: Vec<&Table> = if ids.iter().any(|a| a == "all") {
        TABLES.iter().collect()
    } else {
        let find = |id: &String| {
            experiments::table(id)
                .ok_or_else(|| format!("unknown experiment id {id:?} (try --list)"))
        };
        ids.iter().map(find).collect::<Result<_, _>>()?
    };
    let runner = exec.runner()?;
    let started_at = std::time::SystemTime::now();
    std::fs::create_dir_all("results")?;
    for table in tables {
        let start = Instant::now();
        let body = (table.body)(&runner)?;
        println!(
            "== {} — {} [{:.1}s]",
            table.id,
            table.title,
            start.elapsed().as_secs_f64()
        );
        println!("{body}");
        let mut f = std::fs::File::create(format!("results/{}.txt", table.id))?;
        writeln!(f, "# {} — {}", table.id, table.title)?;
        f.write_all(body.as_bytes())?;
    }
    if let Some(dir) = &exec.trace_out {
        // Tables runs may be fully cache-served (zero simulations, zero
        // traces): validate whatever was written without demanding files.
        verify_traces(dir, 0, started_at)?;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return Ok(());
    }
    let mode = match RunMode::resolve(parse_cli(args)?) {
        Ok(mode) => mode,
        Err(e) => {
            usage();
            return Err(e.into());
        }
    };
    match mode {
        RunMode::ListTables => list_tables(),
        RunMode::Tables { ids, exec } => run_tables(&ids, &exec),
        RunMode::ListGrid { spec_arg, shard } => list_grid(&spec_arg, shard),
        RunMode::Grid {
            spec_arg,
            shard,
            exec,
        } => run_grid(&spec_arg, shard, &exec),
        RunMode::Merge {
            spec_arg,
            cache_dir,
        } => run_merge(&spec_arg, &cache_dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, Box<dyn std::error::Error>> {
        parse_cli(args.iter().map(|s| s.to_string()).collect())
    }

    fn resolve(args: &[&str]) -> Result<RunMode, String> {
        RunMode::resolve(parse(args).unwrap())
    }

    /// The whole rejected-combination matrix, in one table: every flag
    /// that is meaningless in a mode is refused by [`RunMode::resolve`]
    /// with its long-standing message. Adding a flag or a mode means
    /// extending this table.
    #[test]
    fn rejected_flag_combinations() {
        let table: &[(&[&str], &str)] = &[
            // grid mode
            (&["grid"], "grid mode needs a spec"),
            (
                &["grid", "smoke", "--list", "--threads", "2"],
                "--threads does not apply to --list (listing never simulates)",
            ),
            (
                &["grid", "smoke", "--list", "--queue", "heap"],
                "--queue does not apply to --list (listing never simulates)",
            ),
            (
                &["grid", "smoke", "--list", "--trace-out", "/tmp/t"],
                "--trace-out does not apply to --list (listing never simulates)",
            ),
            // merge mode
            (&["merge"], "merge mode needs a spec"),
            (&["merge", "smoke"], "merge mode needs --cache-dir"),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--shard", "0/2"],
                "--shard does not apply to merge mode",
            ),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--threads", "2"],
                "--threads does not apply to merge mode",
            ),
            (
                &["merge", "smoke", "--cache-dir", "/tmp/x", "--queue", "heap"],
                "--queue does not apply to merge mode",
            ),
            (
                &[
                    "merge",
                    "smoke",
                    "--cache-dir",
                    "/tmp/x",
                    "--trace-out",
                    "/tmp/t",
                ],
                "--trace-out does not apply to merge mode",
            ),
            // tables mode
            (
                &["t1", "--shard", "0/2"],
                "--shard only applies to grid mode",
            ),
            (
                &["--list", "--threads", "2"],
                "--threads does not apply to --list (listing never simulates)",
            ),
            (
                &["--list", "--queue", "heap"],
                "--queue does not apply to --list (listing never simulates)",
            ),
            (
                &["--list", "--trace-out", "/tmp/t"],
                "--trace-out does not apply to --list (listing never simulates)",
            ),
        ];
        for (args, want) in table {
            let err = resolve(args).unwrap_err();
            assert!(err.contains(want), "{args:?}: {err}");
        }
    }

    /// Valid combinations all resolve — including the ones that pair
    /// flags the rejected table refuses in *other* modes.
    #[test]
    fn accepted_flag_combinations_resolve() {
        let accepted: &[&[&str]] = &[
            &["t1", "t2"],
            &["all", "--cache-dir", "/tmp/x", "--threads", "2"],
            &["--list"],
            &["--list", "--cache-dir", "/tmp/x"],
            &["grid", "smoke"],
            &["grid", "smoke-deadline", "--shard", "1/2", "--threads", "4"],
            &["grid", "smoke-faults", "--trace-out", "/tmp/t"],
            &["grid", "smoke-service", "--queue", "calendar"],
            &["grid", "smoke-fleet", "--trace-out", "/tmp/t"],
            &[
                "grid",
                "smoke-fleet",
                "--shard",
                "0/2",
                "--cache-dir",
                "/tmp/x",
            ],
            &["merge", "smoke-fleet", "--cache-dir", "/tmp/x"],
            &["grid", "smoke", "--list"],
            &["grid", "smoke-faults", "--list", "--shard", "0/2"],
            &["merge", "smoke", "--cache-dir", "/tmp/x"],
            &["merge", "smoke-faults", "--cache-dir", "/tmp/x"],
        ];
        for args in accepted {
            resolve(args).unwrap_or_else(|e| panic!("{args:?} should resolve: {e}"));
        }
    }

    #[test]
    fn resolved_modes_carry_only_their_knobs() {
        match resolve(&["grid", "smoke-deadline", "--shard", "0/2", "--threads", "3"]).unwrap() {
            RunMode::Grid {
                spec_arg,
                shard,
                exec,
                ..
            } => {
                assert_eq!(spec_arg, "smoke-deadline");
                assert_eq!(shard.unwrap().index(), 0);
                assert_eq!(exec.threads, 3);
            }
            other => panic!("expected Grid, got {other:?}"),
        }
        match resolve(&["grid", "smoke"]).unwrap() {
            RunMode::Grid { exec, .. } => assert_eq!(exec.threads, 0, "omitted flag means auto"),
            other => panic!("expected Grid, got {other:?}"),
        }
        match resolve(&["merge", "smoke-faults", "--cache-dir", "/tmp/x"]).unwrap() {
            RunMode::Merge {
                spec_arg,
                cache_dir,
            } => {
                assert_eq!(spec_arg, "smoke-faults");
                assert_eq!(cache_dir, PathBuf::from("/tmp/x"));
            }
            other => panic!("expected Merge, got {other:?}"),
        }
        match resolve(&["--list"]).unwrap() {
            RunMode::ListTables => {}
            other => panic!("expected ListTables, got {other:?}"),
        }
        match resolve(&["t1", "all"]).unwrap() {
            RunMode::Tables { ids, exec } => {
                assert_eq!(ids, ["t1", "all"]);
                assert_eq!(exec.threads, 0);
            }
            other => panic!("expected Tables, got {other:?}"),
        }
    }

    #[test]
    fn threads_zero_is_rejected() {
        let err = parse(&["grid", "smoke", "--threads", "0"]).unwrap_err();
        assert!(err.to_string().contains("positive worker count"), "{err}");
        // Omitting the flag means auto; an explicit positive count parses.
        assert_eq!(parse(&["grid", "smoke"]).unwrap().threads, None);
        assert_eq!(
            parse(&["grid", "smoke", "--threads", "3"]).unwrap().threads,
            Some(3)
        );
    }

    #[test]
    fn queue_flag_parses_and_validates() {
        assert_eq!(
            parse(&["grid", "smoke", "--queue", "calendar"])
                .unwrap()
                .queue,
            Some(EventQueueKind::Calendar)
        );
        assert_eq!(
            parse(&["grid", "smoke", "--queue", "heap"]).unwrap().queue,
            Some(EventQueueKind::BinaryHeap)
        );
        let err = parse(&["grid", "smoke", "--queue", "fifo"]).unwrap_err();
        assert!(err.to_string().contains("unknown event-queue"), "{err}");
    }

    #[test]
    fn scenario_flags_are_gone() {
        // Scenarios live in the spec: a grid's scenario axis lists them,
        // and the smoke-faults/-service/-fleet built-ins carry the canned
        // ones.
        for flag in ["--faults", "--service", "--fleet"] {
            let err = parse(&["grid", "smoke", flag]).unwrap_err();
            assert!(err.to_string().contains("unknown flag"), "{flag}: {err}");
        }
    }

    #[test]
    fn smoke_service_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_service_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.service.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are closed");
    }

    #[test]
    fn smoke_faults_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_faults_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_contention_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.fault.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are fault-free");
    }

    #[test]
    fn smoke_fleet_grid_compiles_with_baseline_cells() {
        let spec = experiments::smoke_fleet_spec().unwrap();
        let cells = spec.compile().unwrap();
        assert_eq!(
            cells.len(),
            2 * experiments::smoke_spec().unwrap().cell_count()
        );
        let baseline = cells.iter().filter(|c| c.key.fleet.is_none()).count();
        assert_eq!(baseline * 2, cells.len(), "half the cells are fleet-free");
    }

    #[test]
    fn every_registered_grid_loads_by_name() {
        for (name, build) in &GRIDS {
            let spec = load_spec(name).unwrap();
            assert_eq!(spec.name, *name);
            assert_eq!(
                spec.cell_hashes().unwrap(),
                build().unwrap().cell_hashes().unwrap()
            );
        }
        // The admission/placement knobs must keep cell labels (and hence
        // cache keys) distinct across the four scheduler columns.
        let cells = load_spec("smoke-admission").unwrap().compile().unwrap();
        let labels: std::collections::BTreeSet<_> = cells.iter().map(|c| c.key.label()).collect();
        assert_eq!(labels.len(), cells.len(), "every cell label is unique");
    }

    /// A `--trace-out` run whose only simulated cells are fleet cells
    /// writes no trace, and must not fail for it: `grid smoke` fills the
    /// cache, then `grid smoke-fleet` simulates only its fleet half.
    #[test]
    fn fleet_only_simulation_owes_no_trace() {
        let root =
            std::env::temp_dir().join(format!("dmhpc-repro-fleet-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (cache, traces) = (root.join("cache"), root.join("traces"));
        let runner = ExperimentRunner::with_threads(2).cache_dir(&cache).unwrap();
        let smoke = runner.run(&load_spec("smoke").unwrap()).unwrap().stats();
        assert_eq!((smoke.simulated, smoke.observable), (8, 8));

        let started_at = std::time::SystemTime::now();
        let fleet = runner
            .trace_dir(&traces)
            .unwrap()
            .run(&load_spec("smoke-fleet").unwrap())
            .unwrap()
            .stats();
        assert_eq!((fleet.cache_hits, fleet.simulated), (8, 8));
        assert_eq!(fleet.observable, 0, "fleet cells run observation-free");
        let verdict = verify_traces(&traces, fleet.observable, started_at);
        assert!(verdict.is_ok(), "{:?}", verdict.err());
        // Counting every simulated cell, as before, demands a trace no
        // cell could write.
        assert!(verify_traces(&traces, fleet.simulated, started_at).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    fn cache_files(dir: &std::path::Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        files
    }

    /// Grids that list service or fleet scenarios beside their plain
    /// cells merge from disjoint shards, with nothing simulated and
    /// exports equal to a cold full run.
    #[test]
    fn scenario_grids_merge_from_disjoint_shards() {
        let root =
            std::env::temp_dir().join(format!("dmhpc-repro-scenario-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for name in ["smoke-service", "smoke-fleet"] {
            let spec = load_spec(name).unwrap();
            let cache = root.join(name);
            for i in 0..2 {
                ExperimentRunner::with_threads(2)
                    .cache_dir(&cache)
                    .unwrap()
                    .run_shard(&spec, Shard::new(i, 2).unwrap())
                    .unwrap();
            }
            let merged = ExperimentRunner::new()
                .cache_dir(&cache)
                .unwrap()
                .merge(&spec)
                .unwrap();
            assert_eq!(merged.stats().simulated, 0, "{name}");
            let cold = ExperimentRunner::with_threads(2).run(&spec).unwrap();
            assert_eq!(merged.to_csv(), cold.to_csv(), "{name}");
            assert_eq!(merged.to_json(), cold.to_json(), "{name}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `repro merge` with shard 1/2 missing fails, writes nothing into
    /// the cache, and fails the same way when run again.
    #[test]
    fn merge_with_a_missing_shard_fails_and_leaves_the_cache() {
        let cache =
            std::env::temp_dir().join(format!("dmhpc-repro-missing-shard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let spec = load_spec("smoke").unwrap();
        ExperimentRunner::with_threads(2)
            .cache_dir(&cache)
            .unwrap()
            .run_shard(&spec, Shard::new(0, 2).unwrap())
            .unwrap();
        let before = cache_files(&cache);
        assert_eq!(before.len(), 4);
        for _ in 0..2 {
            let err = run_merge("smoke", &cache).unwrap_err().to_string();
            assert!(err.contains("4 of 8 cell(s) were missing"), "{err}");
            assert_eq!(cache_files(&cache), before);
        }
        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn trace_out_parses() {
        assert_eq!(
            parse(&["grid", "smoke", "--trace-out", "/tmp/t"])
                .unwrap()
                .trace_out,
            Some(PathBuf::from("/tmp/t"))
        );
        assert_eq!(parse(&["grid", "smoke"]).unwrap().trace_out, None);
    }

    /// Flags and values a mutation swaps in: malformed numbers, shards
    /// and backends, near-miss flags, and tokens of other modes.
    #[rustfmt::skip]
    const CORRUPT_TOKENS: &[&str] = &[
        "", "0", "-1", "+2", " 2", "2 ", "18446744073709551616", "0/0", "2/2", "3/2",
        "1/", "/1", "/", "-1/2", "0/18446744073709551616", "--", "-", "---threads",
        "--thread", "--Queue", "HEAP", "calendar ", "grid", "merge", "all", "--list",
        "--shard", "--threads", "--queue", "\u{e9}", "\0",
    ];

    /// Apply 1–3 edits to `argv`: drop, duplicate or swap a token, swap in
    /// one of [`CORRUPT_TOKENS`], or flip, insert or cut one character of a
    /// token.
    fn mutate_argv(rng: &mut dmhpc_des::Pcg64, argv: &mut Vec<String>) {
        for _ in 0..1 + rng.index(3) {
            if argv.is_empty() {
                argv.push(CORRUPT_TOKENS[rng.index(CORRUPT_TOKENS.len())].to_string());
                continue;
            }
            let at = rng.index(argv.len());
            match rng.index(5) {
                0 => drop(argv.remove(at)),
                1 => argv.insert(rng.index(argv.len() + 1), argv[at].clone()),
                2 => {
                    let other = rng.index(argv.len());
                    argv.swap(at, other);
                }
                3 => argv[at] = CORRUPT_TOKENS[rng.index(CORRUPT_TOKENS.len())].to_string(),
                _ => {
                    let mut bytes = argv[at].clone().into_bytes();
                    let i = rng.index(bytes.len() + 1);
                    match rng.index(3) {
                        0 if i < bytes.len() => bytes[i] ^= 1 << rng.index(7),
                        1 => bytes.insert(i, b"0123456789/-"[rng.index(12)]),
                        _ => bytes.truncate(i),
                    }
                    argv[at] = String::from_utf8_lossy(&bytes).into_owned();
                }
            }
        }
    }

    /// 1,000 seeded mutations of valid argv vectors of each mode parse and
    /// resolve to a mode or a typed error, never a panic. The resolved
    /// modes are never run, so no mutated `--threads` value starts a
    /// thread.
    #[test]
    fn mutated_argv_is_a_typed_error_not_a_panic() {
        // Valid invocations of each mode, one argv token per word.
        let modes: [&[&str]; 3] = [
            &[
                "--cache-dir c --threads 2 --queue heap t2 f3",
                "--trace-out t all",
                "--list",
            ],
            &[
                "grid smoke --shard 1/2 --cache-dir c --threads 2",
                "grid smoke-contention --queue calendar --trace-out t",
                "grid smoke-faults --list --shard 0/3",
            ],
            &["merge smoke --cache-dir c"],
        ];
        for (mode, valid) in modes.iter().enumerate() {
            let mut resolved = 0;
            for case in 0..1_000u64 {
                let mut rng = dmhpc_des::Pcg64::new_stream(0xA26 + mode as u64, case);
                let seed: Vec<&str> = valid[case as usize % valid.len()].split(' ').collect();
                assert!(resolve(&seed).is_ok(), "{seed:?}");
                let mut argv: Vec<String> = seed.iter().map(|s| s.to_string()).collect();
                mutate_argv(&mut rng, &mut argv);
                let outcome = std::panic::catch_unwind(|| {
                    let cli = parse_cli(argv.clone()).map_err(|e| e.to_string())?;
                    RunMode::resolve(cli).map(drop)
                });
                match outcome {
                    Ok(ok) => resolved += ok.is_ok() as usize,
                    Err(_) => panic!("mode {mode} case {case} panicked on {argv:?}"),
                }
            }
            // Both the accepting and the refusing paths are reached.
            assert!(
                0 < resolved && resolved < 1_000,
                "mode {mode}: {resolved} resolved"
            );
        }
    }
}
