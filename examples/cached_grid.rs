//! Grid scaling: content-addressed caching, sharding, and incremental
//! re-runs.
//!
//! Runs a policy grid three ways and prints what each cost:
//!
//! 1. **Sharded cold run** — two "processes" each simulate a disjoint
//!    half of the grid into one shared cache, then a merge loads the
//!    full grid from that cache (it never simulates).
//! 2. **Warm re-run** — the unchanged spec replays entirely from cache.
//!    Each cached cell is its summary (report, counters, 25-point series
//!    resamples), so the exports match a cold run byte for byte, but
//!    per-job records are only in cells simulated by this run.
//! 3. **Incremental re-run** — one extra seed is added; only the new
//!    cells simulate, everything else is a cache hit.
//!
//! ```text
//! cargo run --release --example cached_grid
//! ```

use dmhpc::prelude::*;
use dmhpc::sim::ExperimentBuilder;
use std::time::Instant;

fn main() -> Result<(), SimError> {
    let cache_dir = std::env::temp_dir().join(format!("dmhpc-cached-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let spec = ExperimentSpec::builder("cached-grid")
        .preset(SystemPreset::MidCluster, 600)
        .pools([
            PoolTopology::None,
            PoolTopology::PerRack {
                mib_per_rack: 512 * 1024,
            },
        ])
        .load(0.9)
        .seeds([41, 42])
        .policy_suite(SlowdownModel::Saturating {
            penalty: 1.5,
            curvature: 3.0,
        })
        .build()?;
    println!(
        "grid: {} cells, cache at {}\n",
        spec.cell_count(),
        cache_dir.display()
    );

    // 1. Sharded cold run: each shard is a disjoint slice; in CI these
    //    would be separate jobs sharing the cache directory.
    for i in 0..2 {
        let t = Instant::now();
        let runner = ExperimentRunner::new().cache_dir(&cache_dir)?;
        let part = runner.run_shard(&spec, Shard::new(i, 2)?)?;
        println!(
            "shard {i}/2: {} cells simulated in {:.2}s",
            part.stats().simulated,
            t.elapsed().as_secs_f64()
        );
    }
    let merged = ExperimentRunner::new()
        .cache_dir(&cache_dir)?
        .merge(&spec)?;
    assert_eq!(merged.stats().simulated, 0);
    println!(
        "merged:    {} cells from cache, grid-ordered\n",
        merged.len()
    );

    // 2. Warm re-run: nothing changed, nothing simulates, and the export
    //    is byte-identical to a cold run.
    let t = Instant::now();
    let warm = ExperimentRunner::new().cache_dir(&cache_dir)?.run(&spec)?;
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(warm.to_csv(), merged.to_csv());
    assert!(warm.cells().iter().all(|c| c.output.records.is_empty()));
    println!(
        "warm run:  {} cache hits, 0 simulated, {:.2}s (byte-identical export)\n",
        warm.stats().cache_hits,
        t.elapsed().as_secs_f64()
    );

    // 3. Incremental re-run: add a seed; only its cells are new content.
    let edited = ExperimentBuilder::from_spec(spec.clone())
        .seed(43)
        .build()?;
    let t = Instant::now();
    let incr = ExperimentRunner::new()
        .cache_dir(&cache_dir)?
        .run(&edited)?;
    println!(
        "edited:    {} new cells simulated, {} unchanged cells from cache, {:.2}s",
        incr.stats().simulated,
        incr.stats().cache_hits,
        t.elapsed().as_secs_f64()
    );

    // Who waits how long, from the merged table.
    println!("\n{:<44} {:>12} {:>10}", "cell", "mean_wait_s", "p95_bsld");
    for cell in warm.cells() {
        println!(
            "{:<44} {:>12.0} {:>10.2}",
            cell.key.label(),
            cell.output.report.mean_wait_s,
            cell.output.report.p95_bsld,
        );
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok(())
}
