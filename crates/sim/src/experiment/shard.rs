//! Deterministic grid sharding.
//!
//! A [`Shard`] names one slice of a compiled grid: shard `i` of `n` takes
//! every cell whose compile-order index is congruent to `i` mod `n`.
//! Round-robin assignment (rather than contiguous chunks) balances load:
//! adjacent cells share a cluster and load point and therefore correlate
//! in cost, so dealing them out like cards gives each process a
//! representative mix. The partition is a pure function of the spec, so
//! `n` independent processes — or CI jobs — agree on it without
//! coordination, and `∪ shards == full grid` with no overlaps for any
//! `n ≥ 1` (tested).
//!
//! Shards meet in a result cache: each shard process stores its cells
//! into one cache directory, and [`crate::ExperimentRunner::merge`]
//! loads the full grid from it, failing on any cell no shard stored.

use super::{ExperimentSpec, RunSpec};
use crate::error::SimError;
use std::fmt;

/// One slice of a grid: shard `index` of `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// Shard `index` of `count`. `index` must be `< count` and `count`
    /// must be `≥ 1`.
    pub fn new(index: usize, count: usize) -> Result<Self, SimError> {
        if count == 0 {
            return Err(SimError::spec("shard count must be >= 1"));
        }
        if index >= count {
            return Err(SimError::spec(format!(
                "shard index {index} out of range for {count} shards (valid: 0..{count})"
            )));
        }
        Ok(Shard { index, count })
    }

    /// Parse the CLI form `i/n` (e.g. `0/4`).
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let bad = || SimError::spec(format!("shard must look like i/n (e.g. 0/4), got {text:?}"));
        let (i, n) = text.split_once('/').ok_or_else(bad)?;
        Shard::new(
            i.trim().parse().map_err(|_| bad())?,
            n.trim().parse().map_err(|_| bad())?,
        )
    }

    /// This shard's index (`0..count`).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of shards.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether compile-order cell `i` belongs to this shard.
    pub fn owns(&self, cell_index: usize) -> bool {
        cell_index % self.count == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl ExperimentSpec {
    /// Compile the grid and keep only the cells belonging to `shard`, in
    /// grid order. `shard(0, 1)` is the whole grid.
    pub fn shard(&self, shard: Shard) -> Result<Vec<RunSpec>, SimError> {
        Ok(self
            .compile()?
            .into_iter()
            .enumerate()
            .filter(|(i, _)| shard.owns(*i))
            .map(|(_, cell)| cell)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{default_slowdown, policy_suite};
    use crate::ExperimentRunner;
    use dmhpc_platform::PoolTopology;
    use dmhpc_workload::SystemPreset;

    fn spec() -> ExperimentSpec {
        ExperimentSpec::builder("shard-test")
            .preset(SystemPreset::HighThroughput, 30)
            .pools([
                PoolTopology::None,
                PoolTopology::PerRack {
                    mib_per_rack: 384 * 1024,
                },
            ])
            .loads([0.7, 0.9])
            .seeds([1, 2, 3])
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap()
    }

    #[test]
    fn parse_and_validate() {
        assert_eq!(Shard::parse("0/4").unwrap(), Shard::new(0, 4).unwrap());
        assert_eq!(Shard::parse(" 3/8 ").unwrap().to_string(), "3/8");
        for bad in ["", "1", "4/4", "a/b", "1/0", "-1/2", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn shards_partition_the_grid_for_any_count() {
        let spec = spec();
        let full = spec.compile().unwrap();
        for n in [1usize, 2, 3, 5, 7, full.len(), full.len() + 13] {
            let mut seen: Vec<&super::super::CellKey> = Vec::new();
            for i in 0..n {
                let part = spec.shard(Shard::new(i, n).unwrap()).unwrap();
                for cell in &part {
                    assert!(
                        !seen.iter().any(|k| **k == cell.key),
                        "cell {} in two shards (n={n})",
                        cell.key.label()
                    );
                }
                // Balanced to within one cell.
                let lo = full.len() / n;
                assert!(
                    part.len() == lo || part.len() == lo + 1,
                    "shard {i}/{n} holds {} cells of {}",
                    part.len(),
                    full.len()
                );
                seen.extend(
                    spec.shard(Shard::new(i, n).unwrap())
                        .unwrap()
                        .iter()
                        .map(|c| {
                            full.iter()
                                .map(|f| &f.key)
                                .find(|k| **k == c.key)
                                .expect("shard cell exists in full grid")
                        }),
                );
            }
            assert_eq!(seen.len(), full.len(), "∪ shards == full grid (n={n})");
        }
    }

    /// A fresh cache directory for one test, removed when dropped.
    struct TempCache(std::path::PathBuf);

    impl TempCache {
        fn new(test: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("dmhpc-shard-{test}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempCache(dir)
        }

        fn runner(&self) -> ExperimentRunner {
            ExperimentRunner::with_threads(2)
                .cache_dir(&self.0)
                .unwrap()
        }

        fn files(&self) -> Vec<std::path::PathBuf> {
            let mut files: Vec<_> = std::fs::read_dir(&self.0)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            files.sort();
            files
        }
    }

    impl Drop for TempCache {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn merged_shards_equal_the_full_run() {
        let spec = spec();
        let full = ExperimentRunner::with_threads(2).run(&spec).unwrap();
        let cache = TempCache::new("merged");
        // Shards may run in any order.
        for i in (0..3).rev() {
            cache
                .runner()
                .run_shard(&spec, Shard::new(i, 3).unwrap())
                .unwrap();
        }
        let merged = cache.runner().merge(&spec).unwrap();
        assert_eq!(merged.len(), full.len());
        assert_eq!(merged.to_csv(), full.to_csv());
        assert_eq!(merged.to_json(), full.to_json());
        for (a, b) in merged.cells().iter().zip(full.cells()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.output.trace_hash, b.output.trace_hash);
        }
        assert_eq!(merged.stats().simulated, 0);
        assert_eq!(merged.stats().cache_hits, full.len());
    }

    #[test]
    fn merge_fails_on_missing_cells_and_leaves_the_cache_as_it_was() {
        let spec = spec();
        let cache = TempCache::new("missing");
        cache
            .runner()
            .run_shard(&spec, Shard::new(0, 2).unwrap())
            .unwrap();
        let before = cache.files();
        let first_missing = spec.compile().unwrap()[1].key.label();
        let total = spec.cell_count();
        let expected = format!(
            "{} of {total} cell(s) were missing, first {first_missing}",
            total / 2
        );
        // Merge never simulates the missing half, so a second merge
        // fails just like the first.
        for _ in 0..2 {
            let err = cache.runner().merge(&spec).unwrap_err().to_string();
            assert!(err.contains(&expected), "{err}");
            assert_eq!(cache.files(), before, "a failed merge writes nothing");
        }
        // Without a cache every cell is missing.
        let err = ExperimentRunner::with_threads(1).merge(&spec).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("{total} of {total} cell(s)")),
            "{err}"
        );
    }

    #[test]
    fn overlapping_and_foreign_cells_do_not_disturb_a_merge() {
        let spec = spec();
        let full = ExperimentRunner::with_threads(2).run(&spec).unwrap();
        let cache = TempCache::new("overlap");
        // Overlapping shards: 0/2 twice and 0/3 store some cells again;
        // a content-addressed cache holds each cell once.
        for shard in [(0, 2), (0, 2), (0, 3), (1, 2)] {
            cache
                .runner()
                .run_shard(&spec, Shard::new(shard.0, shard.1).unwrap())
                .unwrap();
        }
        assert_eq!(cache.files().len(), spec.cell_count());
        // Foreign cells: another grid's cells share the directory.
        let mut foreign = ExperimentSpec::builder("foreign")
            .preset(SystemPreset::HighThroughput, 30)
            .pool(PoolTopology::None)
            .load(0.5)
            .seed(4)
            .schedulers(policy_suite(default_slowdown()))
            .build()
            .unwrap();
        cache.runner().run(&foreign).unwrap();
        assert!(cache.files().len() > spec.cell_count());
        let merged = cache.runner().merge(&spec).unwrap();
        assert_eq!(merged.to_csv(), full.to_csv());
        assert_eq!(merged.to_json(), full.to_json());
        // Names are not content: a renamed spec merges from the same
        // cells, under its own name.
        foreign.name = "renamed".into();
        let renamed = cache.runner().merge(&foreign).unwrap();
        assert_eq!(renamed.name, "renamed");
        assert_eq!(renamed.len(), foreign.cell_count());
    }
}
